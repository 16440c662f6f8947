"""The instrumentation bus: taxonomy, sinks, reconciliation, invariants."""

import io
import json

import pytest

from repro import Machine, MachineConfig
from repro.errors import ProtocolError
from repro.trace import (ContentionHeatmap, CountersTracer, InvariantTracer,
                         JsonlTracer, NullTracer, RingBufferTracer, TraceBus,
                         reconcile)
from repro.trace import events as ev
from repro.workloads.driver import bench_counter, bench_queue, bench_stack

from conftest import make_machine


# -- events -----------------------------------------------------------------

def test_event_to_dict_includes_kind_time_and_payload():
    e = ev.ReqIssued(3, 17, "GetX", True)
    e.t = 42
    d = e.to_dict()
    assert d == {"kind": "req_issued", "t": 42, "core": 3, "line": 17,
                 "req": "GetX", "is_lease": True}


def test_every_event_kind_is_unique():
    kinds = [cls.kind for cls in vars(ev).values()
             if isinstance(cls, type) and issubclass(cls, ev.TraceEvent)
             and cls is not ev.TraceEvent]
    assert len(kinds) == len(set(kinds))


def test_lease_release_modes_cover_counter_fields():
    assert set(ev.LeaseReleased.MODES) == {
        "voluntary", "expired", "broken", "fifo"}


# -- bus --------------------------------------------------------------------

def test_bus_without_sinks_is_a_noop():
    bus = TraceBus()
    bus.emit(ev.L1Hit(0, 0))        # must not raise


def test_bus_stamps_time_and_fans_out():
    now = [0]
    ring_a, ring_b = RingBufferTracer(), RingBufferTracer()
    bus = TraceBus(clock=lambda: now[0], sinks=(ring_a,))
    bus.attach(ring_b)
    now[0] = 7
    bus.emit(ev.L1Hit(0, 5))
    assert ring_a.events()[0].t == 7
    assert ring_b.events()[0].t == 7
    bus.detach(ring_b)
    bus.emit(ev.L1Hit(0, 6))
    assert ring_a.total == 2 and ring_b.total == 1


def test_null_tracer_drops_everything():
    bus = TraceBus(sinks=(NullTracer(),))
    bus.emit(ev.L1Hit(0, 0))        # must not raise


# -- counters sink ----------------------------------------------------------

def test_counters_sink_rebuilds_classic_counters():
    sink = CountersTracer()
    bus = TraceBus(sinks=(sink,))
    bus.emit(ev.L1Hit(0, 1))
    bus.emit(ev.L1Miss(0, 2))
    bus.emit(ev.MessageSent(0, 3, "GetS", 2, False))
    bus.emit(ev.ReqIssued(0, 2, "GetS", False))
    bus.emit(ev.ReqIssued(1, 2, "GetX", False))
    bus.emit(ev.ReqQueued(1, 2, 3))
    bus.emit(ev.ProbeSent(0, 2, "Inv"))
    bus.emit(ev.ProbeServiced(0, 2, "Inv", stale=True, data=False))
    bus.emit(ev.LeaseReleased(0, 2, "fifo"))
    bus.emit(ev.CasOutcome(0, 64, False))
    bus.emit(ev.OpCompleted(1))
    k = sink.counters
    assert k.l1_hits == 1 and k.l1_misses == 1
    assert k.messages == 1 and k.hops == 2
    assert k.gets_requests == 1 and k.getx_requests == 1
    assert k.dir_queued_requests == 1 and k.dir_max_queue_depth == 3
    assert k.invalidations_sent == 1 and k.stale_probes == 1
    assert k.releases_fifo_eviction == 1
    assert k.cas_attempts == 1 and k.cas_failures == 1
    assert k.ops_completed == 1 and k.per_core_ops == {1: 1}


# -- the fast path ----------------------------------------------------------

def test_counters_only_bus_skips_event_objects():
    # With only fast-handler sinks attached, no type needs the object...
    bus = TraceBus(sinks=(CountersTracer(),))
    assert bus.fast_path_enabled
    assert not bus.wants(ev.L1Hit)
    assert not bus.wants(ev.MessageSent)
    # ...yet the slots still feed the counters.
    bus.l1_hit(0, 1)
    bus.message(0, 3, "GetS", 2, False)
    k = bus.sinks[0].counters
    assert k.l1_hits == 1 and k.messages == 1 and k.hops == 2


def test_fast_and_slow_slots_build_identical_counters():
    def storm(bus):
        for i in range(50):
            bus.l1_hit(0, i)
            bus.l1_miss(1, i)
            bus.message(0, 1, "GetX", 3, True)
            bus.req_queued(1, i, i % 7)
            bus.cas(0, 64, i % 3 == 0)
            bus.lease_released(0, i, "voluntary")
            bus.op_completed(i % 4)

    fast, slow = TraceBus(sinks=(CountersTracer(),)), \
        TraceBus(sinks=(CountersTracer(),))
    slow.set_fast_path(False)
    assert slow.wants(ev.L1Hit)     # slow path constructs every object
    storm(fast)
    storm(slow)
    assert fast.sinks[0].counters == slow.sinks[0].counters


def test_object_sink_forces_slow_slot_for_its_types_only():
    heat = ContentionHeatmap()
    bus = TraceBus(sinks=(CountersTracer(), heat))
    # The heatmap wants objects for its four kinds; everything else stays
    # on the allocation-free path.
    assert bus.wants(ev.ReqQueued) and bus.wants(ev.ProbeDeferred)
    assert not bus.wants(ev.L1Hit) and not bus.wants(ev.MessageSent)
    # Through the slow slot both sinks still see the event exactly once.
    bus.req_queued(1, 2, 5)
    assert bus.sinks[0].counters.dir_queued_requests == 1
    (row,) = heat.rows()
    assert row["dir_queued"] == 1 and row["max_queue_depth"] == 5
    bus.detach(heat)
    assert not bus.wants(ev.ReqQueued)


def test_ring_buffer_keeps_every_type_on_slow_path():
    ring = RingBufferTracer()
    bus = TraceBus(clock=lambda: 42, sinks=(ring,))
    # interests() is None -> all types delivered as objects, clock-stamped.
    assert bus.wants(ev.L1Hit) and bus.wants(ev.CasOutcome)
    bus.l1_hit(0, 9)
    (e,) = ring.events()
    assert isinstance(e, ev.L1Hit) and e.t == 42 and e.line == 9


def test_run_result_identical_across_fast_path_toggle():
    def run(fast):
        from repro.structures import LockedCounter
        m = Machine(MachineConfig(num_cores=4))
        m.trace.set_fast_path(fast)
        counter = LockedCounter(m, lock="tts")
        for _ in range(4):
            m.add_thread(counter.update_worker, 20)
        m.run()
        return m.result("c")

    assert run(True) == run(False)


def test_every_event_kind_has_a_bus_slot():
    from repro.trace.bus import EVENT_TYPES
    bus = TraceBus()
    for cls in EVENT_TYPES:
        assert callable(getattr(bus, cls.kind)), cls


# -- observation does not perturb the run -----------------------------------

def _run_stack(sinks):
    return bench_stack(4, variant="lease", ops_per_thread=30, sinks=sinks)


def test_run_result_identical_with_and_without_sinks():
    bare = _run_stack(None)
    ring = RingBufferTracer(capacity=256)
    heat = ContentionHeatmap()
    jsonl = JsonlTracer(io.StringIO())
    traced = _run_stack([ring, heat, jsonl])
    # Dataclass equality covers every field, including the full counter
    # snapshot -- observation must never change the simulation.
    assert bare == traced
    assert ring.total > 0


def test_jsonl_trace_reconciles_with_counters():
    buf = io.StringIO()
    jsonl = JsonlTracer(buf)
    res = bench_queue(4, variant="lease", ops_per_thread=20, sinks=[jsonl])
    assert reconcile(jsonl.counts, res.counters) == []
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == jsonl.written == jsonl.total
    by_kind = {}
    for d in lines:
        by_kind[d["kind"]] = by_kind.get(d["kind"], 0) + 1
    assert by_kind == jsonl.counts


def test_reconcile_reports_mismatches():
    res = bench_stack(2, variant="base", ops_per_thread=10)
    problems = reconcile({"message": 0}, res.counters)
    assert any(p.startswith("messages:") for p in problems)


def test_jsonl_max_events_truncates_file_not_counts():
    buf = io.StringIO()
    jsonl = JsonlTracer(buf, max_events=10)
    res = bench_stack(2, variant="base", ops_per_thread=10, sinks=[jsonl])
    assert jsonl.written == 10
    assert jsonl.total > 10
    assert len(buf.getvalue().splitlines()) == 10
    assert reconcile(jsonl.counts, res.counters) == []


def test_jsonl_annotate_adds_context_fields():
    buf = io.StringIO()
    jsonl = JsonlTracer(buf)
    jsonl.annotate(variant="lease", threads=2)
    bench_stack(2, variant="lease", ops_per_thread=5, sinks=[jsonl])
    first = json.loads(buf.getvalue().splitlines()[0])
    assert first["variant"] == "lease" and first["threads"] == 2


def test_ring_buffer_is_bounded():
    ring = RingBufferTracer(capacity=32)
    bench_stack(2, variant="base", ops_per_thread=20, sinks=[ring])
    assert len(ring.events()) == 32
    assert ring.total > 32
    out = io.StringIO()
    assert ring.dump(out) == 32


# -- heatmap ----------------------------------------------------------------

def test_heatmap_names_hot_allocations():
    heat = ContentionHeatmap()
    bench_stack(4, variant="base", ops_per_thread=30, sinks=[heat])
    rows = heat.rows(top=1)
    assert rows[0]["allocation"] == "stack.head"
    assert rows[0]["dir_queued"] > 0
    assert "stack.head" in heat.report()


def test_heatmap_falls_back_to_line_number():
    heat = ContentionHeatmap()
    bus = TraceBus(sinks=(heat,))
    bus.emit(ev.ReqQueued(0, 123, 1))
    assert heat.rows()[0]["allocation"] == "line#123"


# -- invariant checker ------------------------------------------------------

def test_invariant_tracer_passes_on_lease_runs():
    inv = InvariantTracer()
    bench_stack(4, variant="lease", ops_per_thread=20, sinks=[inv])
    assert inv.checks_run > 100


def test_invariant_tracer_passes_on_lock_runs():
    inv = InvariantTracer(every=16)
    bench_counter(4, use_lease=True, ops_per_thread=20, sinks=[inv])
    assert inv.checks_run > 0


def test_invariant_tracer_passes_under_mesi(machine):
    inv = InvariantTracer()
    cfg = MachineConfig(num_cores=4, protocol="mesi")
    m = Machine(cfg)
    m.attach_tracer(inv)
    from repro.structures import TreiberStack
    s = TreiberStack(m)
    s.prefill(range(8))
    for _ in range(4):
        m.add_thread(s.update_worker, 10)
    m.run()
    assert inv.checks_run > 0


def test_invariant_tracer_detects_corrupted_l1():
    """Corrupt a core's L1 behind the directory's back: the continuous
    checker must flag the disagreement on the next event."""
    from repro.coherence.states import LineState

    from repro import Load

    m = make_machine(2)
    inv = m.attach_tracer(InvariantTracer())
    addr = m.alloc_var(1)

    def body(ctx):
        yield Load(addr)            # directory now tracks the line (SHARED)

    m.add_thread(body)
    m.run()
    line = m.amap.line_of(addr)
    # Core 1 conjures the line in M without any coherence transaction.
    m.cores[1].memunit.l1.fill(line, LineState.M)
    with pytest.raises(ProtocolError, match="invariant violated"):
        m.trace.emit(ev.OpCompleted(0))
    assert inv.checks_run > 0


def test_invariant_tracer_requires_bind():
    inv = InvariantTracer()
    with pytest.raises(ProtocolError):
        inv.check()


def test_invariant_every_must_be_positive():
    with pytest.raises(ValueError):
        InvariantTracer(every=0)


# -- machine integration -----------------------------------------------------

def test_machine_counters_are_the_default_sink(machine):
    assert machine.counters is machine.trace.sinks[0].counters


def test_attach_tracer_binds_and_detaches(machine):
    heat = ContentionHeatmap()
    assert machine.attach_tracer(heat) is heat
    assert heat in machine.trace.sinks
    machine.detach_tracer(heat)
    assert heat not in machine.trace.sinks


def test_allocator_labels_resolve():
    m = make_machine(2)
    addr = m.alloc_var(0, label="spot")
    assert m.alloc.label_of(m.amap.line_of(addr)) == "spot"
    assert m.alloc.label_of(10**9) is None


# -- interests() discipline ----------------------------------------------------

#: Sinks that genuinely consume every event kind as an object.
WHOLE_STREAM_SINKS = {"InvariantTracer", "JsonlTracer", "RingBufferTracer"}


def _repro_tracer_subclasses(base):
    """Every subclass of ``base`` defined under ``repro`` (all modules
    imported first, so none is missed for want of an import)."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return {c for c in found if c.__module__.startswith("repro.")}


def test_every_partial_sink_declares_interests():
    """A sink that leaves ``interests()`` at the default ``None`` forces
    the bus's slow path for every event kind.  Only the whole-stream
    capture/checking sinks may do that."""
    from repro.trace.bus import Tracer

    sinks = _repro_tracer_subclasses(Tracer)
    assert WHOLE_STREAM_SINKS <= {c.__name__ for c in sinks}, \
        "allowlist names a ghost"
    undeclared = {c.__name__ for c in sinks
                  if c.interests is Tracer.interests}
    assert undeclared == WHOLE_STREAM_SINKS, (
        f"declare interests() on {sorted(undeclared - WHOLE_STREAM_SINKS)}")


def test_check_machine_constructs_only_history_and_lease_objects():
    """A ``run_once`` machine (history recorder + lease-property sink)
    builds event objects for exactly the kinds those sinks read; every
    other kind stays on the counters' fast handlers."""
    from repro.check import HistoryRecorder, LeasePropertyTracer
    from repro.trace.bus import EVENT_TYPES

    m = make_machine()
    m.attach_tracer(HistoryRecorder())
    m.attach_tracer(LeasePropertyTracer())
    wanted = {t for t in EVENT_TYPES if m.trace.wants(t)}
    assert wanted == {ev.OpCompleted, ev.LeaseProbeQueued,
                      ev.ProbeServiced, ev.MultiLeaseIssued,
                      ev.LeaseStarted, ev.LeaseReleased}
