"""Wheel-vs-heap identity: a machine with no schedule strategy runs on the
:class:`TimeWheel`, and one with the base :class:`ScheduleStrategy` (every
priority 0, i.e. the classic ``(time, seq)`` order) runs on the heap
:class:`EventQueue`.  Both must produce *bit-identical* results on every
workload, protocol, lease/fault setting and core count -- plus the
TimeWheel's own queue semantics and the quiescence notify-mode timing.

Test names predate the single run loop: "fast" is the wheel arm and
"compat" the heap arm.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.perturb import RandomStrategy
from repro.config import MachineConfig
from repro.core.isa import Store
from repro.core.machine import Machine
from repro.engine.event_queue import EventQueue, ScheduleStrategy
from repro.engine.wheel import TimeWheel
from repro.errors import SimulationError
from repro.state.checkpoint import build_document, restore_checkpoint
from repro.structures import TreiberStack
from repro.trace import RingBufferTracer
from repro.workloads.driver import bench_stack


def _config(*, cores: int = 4, protocol: str = "msi", leases: bool = False,
            faults: str = "", seed: int = 1) -> MachineConfig:
    cfg = MachineConfig(num_cores=cores, protocol=protocol,
                        fault_spec=faults, seed=seed)
    return replace(cfg, lease=replace(cfg.lease, enabled=leases))


def _machine(cfg: MachineConfig, heap: bool) -> Machine:
    """The wheel arm, or the heap arm under the base strategy."""
    return Machine(cfg, schedule_strategy=ScheduleStrategy() if heap
                   else None)


def _storm(cfg: MachineConfig, heap: bool = False, rounds: int = 12):
    """Every core stores to one line: the densest invalidation traffic."""
    m = _machine(cfg, heap)
    addr = m.alloc_var(0, label="test.storm")

    def body(ctx):
        for i in range(rounds):
            yield Store(addr, i)
        ctx.note_op()

    for _ in range(cfg.num_cores):
        m.add_thread(body)
    return m


def _treiber(cfg: MachineConfig, heap: bool = False, ops: int = 10):
    m = _machine(cfg, heap)
    s = TreiberStack(m)
    s.prefill(range(16))
    for _ in range(cfg.num_cores):
        m.add_thread(s.update_worker, ops)
    return m


def _run_pair(build, **cfg_kw):
    """Build and run the same workload on both queues; returns both
    machines after asserting the RunResults and event counts match."""
    mw = build(_config(**cfg_kw), False)
    mh = build(_config(**cfg_kw), True)
    mw.run()
    mh.run()
    assert mw.result("x") == mh.result("x")
    assert mw.sim.events_processed == mh.sim.events_processed
    assert mw.sim.now == mh.sim.now
    return mw, mh


# ---------------------------------------------------------------------------
# Property: wheel == heap over the full feature grid
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    cores=st.integers(min_value=1, max_value=8),
    protocol=st.sampled_from(["msi", "mesi"]),
    leases=st.booleans(),
    faults=st.sampled_from(["", "net_jitter:p=0.05,max=40;dir_nack:p=0.02"]),
    seed=st.integers(min_value=1, max_value=2**20),
)
def test_property_engines_bit_identical(cores, protocol, leases, faults,
                                        seed):
    _run_pair(_treiber, cores=cores, protocol=protocol, leases=leases,
              faults=faults, seed=seed)


@settings(max_examples=10, deadline=None)
@given(
    cores=st.integers(min_value=2, max_value=6),
    rounds=st.integers(min_value=2, max_value=20),
    protocol=st.sampled_from(["msi", "mesi"]),
)
def test_property_storm_bit_identical(cores, rounds, protocol):
    _run_pair(lambda cfg, heap: _storm(cfg, heap, rounds), cores=cores,
              protocol=protocol)


def test_trace_streams_identical_across_queues():
    """A RingBufferTracer records the exact emit stream, so the two queues
    can be compared event-for-event, not only by their totals."""
    ring_w = RingBufferTracer(capacity=100_000)
    ring_h = RingBufferTracer(capacity=100_000)
    mw = _treiber(_config(), heap=False)
    mw.attach_tracer(ring_w)
    mh = _treiber(_config(), heap=True)
    mh.attach_tracer(ring_h)
    mw.run()
    mh.run()
    assert ([e.to_dict() for e in ring_w.events()]
            == [e.to_dict() for e in ring_h.events()])
    assert mw.result("x") == mh.result("x")


# ---------------------------------------------------------------------------
# Checkpoint: save mid-run on one queue, restore on the other
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    cut=st.integers(min_value=1, max_value=400),
    leases=st.booleans(),
    protocol=st.sampled_from(["msi", "mesi"]),
)
def test_property_checkpoint_mid_run_cross_engine(cut, leases, protocol):
    """Running the wheel to an arbitrary mid-run cycle, checkpointing, and
    resuming on the heap lands on the same final result as an unbroken
    heap run."""
    cfg = _config(leases=leases, protocol=protocol)
    whole = _treiber(cfg, heap=True)
    whole.run()
    want = whole.result("x")

    m1 = _treiber(cfg, heap=False)
    m1.enable_checkpointing()
    m1.run(until=cut)
    doc = build_document(m1)

    m2 = _treiber(cfg, heap=True)
    restore_checkpoint(m2, doc)
    m2.run()
    assert m2.result("x") == want
    assert m2.sim.events_processed == whole.sim.events_processed


def test_checkpoint_with_legacy_pending_retire_slot_loads():
    """Core state written when cores kept a ``pending_retire`` slot still
    restores: the key is ignored."""
    whole = _treiber(_config())
    whole.run()

    m1 = _treiber(_config())
    m1.enable_checkpointing()
    m1.run(until=200)
    state = m1.state_dict()
    for core_state in state["cores"]:
        assert "pending_retire" not in core_state
        core_state["pending_retire"] = None

    m2 = _treiber(_config())
    m2.load_state(state)
    m2.run()
    assert m2.result("x") == whole.result("x")


# ---------------------------------------------------------------------------
# Deferred probe at a miss completion
# ---------------------------------------------------------------------------

def test_deferred_probe_blocks_batch_fold():
    """Two cores storming one line defers a probe behind nearly every data
    arrival; the probe is applied right after the commit callback, before
    the core's next instruction issues, on both queues alike."""
    mw, _ = _run_pair(lambda cfg, heap: _storm(cfg, heap, rounds=3),
                      cores=2)
    # The workload must actually exercise a deferral for the identity to
    # mean anything.
    assert mw.counters.probes_deferred_mid_access > 0


# ---------------------------------------------------------------------------
# Quiescence: notify mode elides polls without changing the stop point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["fast", "compat"])
def test_quiescence_notify_matches_polling(engine):
    """A machine (notify mode) and a hand-polled simulator running the
    same schedule stop at the same cycle with the same event count, on
    the wheel ("fast") and on the heap ("compat")."""
    heap = engine == "compat"
    m_notify = _storm(_config(cores=3), heap, rounds=5)
    m_poll = _storm(_config(cores=3), heap, rounds=5)
    # Forcing the poll-mode default back on must not change the outcome,
    # only the number of predicate evaluations.
    m_poll.sim._poll_quiescence = True
    t1 = m_notify.run()
    t2 = m_poll.run()
    assert t1 == t2
    assert m_notify.sim.events_processed == m_poll.sim.events_processed
    assert m_notify.result("q") == m_poll.result("q")


def test_machine_uses_notify_mode():
    m = _storm(_config(), rounds=2)
    assert m.sim._poll_quiescence is False
    m.run()
    assert m.idle_cores == m.config.num_cores


# ---------------------------------------------------------------------------
# The queue follows the strategy
# ---------------------------------------------------------------------------

def test_strategy_forces_compat_engine():
    for strategy in (ScheduleStrategy(), RandomStrategy(3)):
        m = Machine(_config(), schedule_strategy=strategy)
        assert isinstance(m.sim.queue, EventQueue)


def test_fast_engine_uses_wheel():
    m = Machine(_config())
    assert isinstance(m.sim.queue, TimeWheel)


# ---------------------------------------------------------------------------
# TimeWheel unit behavior
# ---------------------------------------------------------------------------

def test_wheel_pops_in_time_then_insertion_order():
    w = TimeWheel()
    w.schedule(5, lambda: None)
    a = w.schedule(1, lambda: None)
    b = w.schedule(1, lambda: None)
    assert w.pop() is a and w.pop() is b
    assert w.pop().time == 5
    assert w.pop() is None


def test_wheel_cancel_and_live_count():
    w = TimeWheel()
    ev1 = w.schedule(2, lambda: None)
    ev2 = w.schedule(2, lambda: None)
    assert len(w) == 2
    w.cancel(ev1)
    w.cancel(ev1)                      # double-cancel is a no-op
    assert len(w) == 1
    assert w.peek_time() == 2
    assert w.pop() is ev2
    assert w.pop() is None


def test_wheel_append_during_drain_is_picked_up():
    """An event scheduled at the *current* cycle during processing joins
    the draining bucket, matching the heap queue's behavior."""
    w = TimeWheel()
    seen = []

    def first():
        seen.append("first")
        w.schedule(3, lambda: seen.append("second"))

    w.schedule(3, first)
    for _ in range(2):
        ev = w.pop()
        ev.fn(*ev.args)
    assert seen == ["first", "second"]
    assert w.pop() is None


def test_wheel_rejects_negative_time():
    with pytest.raises(SimulationError):
        TimeWheel().schedule(-1, lambda: None)


def test_wheel_state_roundtrip_into_heap_queue():
    """The wheel's canonical checkpoint format round-trips through the
    heap EventQueue (and back), preserving order and seq."""
    class _Codec:
        def encode_fn(self, fn):
            return "fn"

        def decode_fn(self, desc):
            return lambda *a: None

        def encode(self, args):
            return list(args)

        def decode(self, enc):
            return tuple(enc)

    w = TimeWheel()
    w.schedule(4, lambda: None)
    cancelled = w.schedule(2, lambda: None)
    w.schedule(2, lambda: None)
    w.cancel(cancelled)
    state = w.state_dict(_Codec())
    assert state["seq"] == 3
    assert [e[0] for e in state["events"]] == [2, 4]    # cancelled dropped

    q = EventQueue()
    q.load_state(state, _Codec())
    assert len(q) == 2
    assert q.next_seq == 3
    assert q.state_dict(_Codec()) == state

    w2 = TimeWheel()
    w2.load_state(state, _Codec())
    assert len(w2) == 2
    assert w2.next_seq == 3
    assert w2.pop().time == 2
    assert w2.pop().time == 4


def test_wheel_heap_size_counts_pending_entries():
    w = TimeWheel()
    w.schedule(1, lambda: None)
    w.schedule(1, lambda: None)
    ev = w.schedule(9, lambda: None)
    w.cancel(ev)
    assert w.heap_size == 3            # cancelled entries still physical
    w.pop()
    assert w.heap_size == 2


# ---------------------------------------------------------------------------
# run(until) equivalence between the two run loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("until", [0, 1, 37, 150, 10_000])
def test_run_until_slicing_matches_compat(until):
    mw = _storm(_config(cores=3), heap=False, rounds=4)
    mh = _storm(_config(cores=3), heap=True, rounds=4)
    tw = mw.run(until=until)
    th = mh.run(until=until)
    assert tw == th
    assert mw.sim.events_processed == mh.sim.events_processed
    # Finish both; the slice must not have perturbed the tail.
    mw.run()
    mh.run()
    assert mw.result("x") == mh.result("x")


def test_incremental_until_equals_single_run_fast_engine():
    whole = _storm(_config(cores=3), rounds=4)
    whole.run()
    sliced = _storm(_config(cores=3), rounds=4)
    t = 0
    while sliced.idle_cores < sliced.config.num_cores:
        t += 53
        sliced.run(until=t)
    assert sliced.result("x") == whole.result("x")
    assert sliced.sim.events_processed == whole.sim.events_processed


# ---------------------------------------------------------------------------
# The harness path (sweep-cell shape) stays identical too
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["base", "lease", "backoff"])
def test_bench_stack_identical_across_engines(variant):
    rw = bench_stack(4, ops_per_thread=8, variant=variant)
    rh = bench_stack(4, ops_per_thread=8, variant=variant,
                     schedule=ScheduleStrategy())
    assert rw == rh
