"""The benchmark's four workloads, their correctness checks, and the probe
that times each simulated cell from outside the package.

Every workload is closed-loop and runs a fixed batch to completion: each
simulated thread issues its next operation only after the previous one
retires, and the batch ends when every thread has finished its quota.  Every
cell builds a fresh :class:`~repro.core.machine.Machine`, so the modelled
L1s, L2 and directory start empty in every cell, as in the paper's drivers;
nothing is warmed.  Why each workload exists, and which layer it stresses,
is in ``perfbench/README.md``.

Only the public API is called: ``repro.harness.run_experiment``,
``repro.check.campaign.resolve_target`` and ``run_once``,
``repro.check.perturb.strategy_for_schedule``, and ``Machine.run`` /
``.sim.events_processed`` / ``.counters``.  The seed is the only input:
sweeps receive it as the machine-config seed, the check workload as the
campaign seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable

from repro.check.campaign import resolve_target, run_once
from repro.check.perturb import strategy_for_schedule
from repro.core.machine import Machine
from repro.errors import ProtocolError
from repro.harness import run_experiment

#: Section 7 low-contention band, the same 15% that
#: ``benchmarks/test_low_contention.py`` allows lease/base to differ by.
LOW_CONTENTION_BAND = 0.15
#: Finite-bandwidth interconnect for the check workload: two cycles per
#: flit on every egress link, two-cycle directory intake ports.
LINK_SPEC = "link:bw=2;port:dir=2"
CHECK_TARGETS = ("treiber", "msqueue", "counter")
SCHEDULES_PER_TARGET = 60


class CellProbe:
    """Times each cell's set-up and audits it after it ran.

    While active it wraps ``Machine.__init__`` and ``Machine.run`` (from the
    benchmark's side; nothing inside ``src/`` changes).  Set-up is the host
    time from a machine's construction to its first ``run``: machine build,
    prefill, thread creation.  After each run the probe calls
    ``check_coherence_invariants()`` and adds the machine's counts to the
    batch totals.  That audit is timed separately so the caller can take it
    out of the batch's wall time, and ``profiler`` (if given) is paused
    during it so the audit's directory walk is not charged to the directory
    layer.  Only totals are kept, so a run's memory does not grow with its
    number of batches.
    """

    def __init__(self, profiler: Any = None) -> None:
        self.profiler = profiler
        self.setup_s = 0.0
        self.audit_s = 0.0
        #: Per machine, in run order: None, or the broken invariant.
        self.invariant_errors: list[str | None] = []
        self.counters: dict[str, int] = {}
        self.events = 0
        self.cycles = 0
        self.max_queue_depth = 0
        self._born: dict[int, float] = {}

    def __enter__(self) -> "CellProbe":
        init, run = self._orig = Machine.__init__, Machine.run
        probe = self

        def probed_init(m: Machine, *args: Any, **kw: Any) -> None:
            probe._born[id(m)] = time.perf_counter()
            init(m, *args, **kw)

        def probed_run(m: Machine, *args: Any, **kw: Any) -> int:
            born = probe._born.pop(id(m), None)
            if born is None:
                raise RuntimeError(
                    "Machine.run called twice on one machine; the benchmark "
                    "probe assumes one run per cell")
            probe.setup_s += time.perf_counter() - born
            try:
                return run(m, *args, **kw)
            finally:
                probe._audit(m)

        Machine.__init__, Machine.run = probed_init, probed_run
        return self

    def __exit__(self, *exc: object) -> None:
        Machine.__init__, Machine.run = self._orig

    def _audit(self, m: Machine) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        t0 = time.perf_counter()
        error = None
        try:
            m.check_coherence_invariants()
        except ProtocolError as exc:
            error = str(exc)
        self.invariant_errors.append(error)
        for k, v in m.counters.snapshot().items():
            self.counters[k] = self.counters.get(k, 0) + v
        self.events += m.sim.events_processed
        self.cycles += m.sim.now
        self.max_queue_depth = max(self.max_queue_depth,
                                   m.counters.dir_max_queue_depth)
        self.audit_s += time.perf_counter() - t0
        if self.profiler is not None:
            self.profiler.enable()


@dataclass
class Batch:
    """One batch of a workload: its timing, its outputs, its verdicts."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    ops: int = 0
    #: Operations attempted: sweep cells, or checked schedules.
    attempted: int = 0
    #: Failed operation ids, each with its first reason.
    failures: dict[str, str] = field(default_factory=dict)
    #: Simulated outputs in run order (``RunResult``s or ``RunOutcome``s);
    #: ``run_batch`` hashes them into ``digest`` once the batch is timed,
    #: then drops them.
    outputs: list[Any] = field(default_factory=list)
    digest: str = ""
    #: The probe that watched the batch; its totals feed the layer counts.
    probe: CellProbe | None = None
    schedules: int = 0
    inconclusive: int = 0
    checked_ops: int = 0

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)


# -- sweep workloads ----------------------------------------------------------

ShapeCheck = Callable[[str, dict, Batch], None]


def _sweep(batch: Batch, probe: CellProbe, exp_id: str,
           threads: tuple[int, ...], variants: tuple[str, ...], seed: int,
           shape: ShapeCheck) -> None:
    """Run one experiment at ``threads`` and judge each of its cells."""
    cell_ids = [f"{exp_id}/{v}/t={n}" for v in variants for n in threads]
    batch.attempted += len(cell_ids)
    first = len(probe.invariant_errors)
    try:
        res = run_experiment(exp_id, threads, seed=seed)
    except Exception as exc:  # a crashed sweep fails every cell it held
        traceback.print_exc(file=sys.stderr)
        for cid in cell_ids:
            batch.fail(cid, f"raised {type(exc).__name__}: {exc}")
        return
    for cid, error in zip(cell_ids, probe.invariant_errors[first:]):
        if error is not None:
            batch.fail(cid, f"coherence invariant: {error}")
    for variant in variants:
        for r in res[variant]:
            batch.ops += r.ops
            batch.outputs.append(r)
    shape(exp_id, res, batch)


def _counter_shape(exp_id: str, res: dict, batch: Batch) -> None:
    """Fig 3a: the leased TTS lock beats plain TTS at the top thread count.
    (Each cell's exactness -- no lost increment -- is asserted by the
    driver itself, which raises on a lost update.)"""
    tts, leased = res["tts"][-1], res["tts+lease"][-1]
    if leased.throughput_ops_per_sec < tts.throughput_ops_per_sec:
        batch.fail(f"{exp_id}/tts+lease/t={leased.num_threads}",
                   "tts+lease slower than tts at the top thread count")


def _stack_shape(exp_id: str, res: dict, batch: Batch) -> None:
    """Fig 2: lease >= base on every cell, and leases remove CAS retries."""
    for b, l in zip(res["base"], res["lease"]):
        cid = f"{exp_id}/lease/t={l.num_threads}"
        if l.throughput_ops_per_sec < b.throughput_ops_per_sec:
            batch.fail(cid, "lease slower than base")
        if l.cas_failure_rate != 0:
            batch.fail(cid, f"lease CAS failure rate {l.cas_failure_rate}")


def _low_contention_shape(exp_id: str, res: dict, batch: Batch) -> None:
    """Section 7: leases neither help nor hurt without contention."""
    for b, l in zip(res["base"], res["lease"]):
        ratio = l.throughput_ops_per_sec / b.throughput_ops_per_sec
        if abs(ratio - 1) > LOW_CONTENTION_BAND:
            batch.fail(f"{exp_id}/lease/t={l.num_threads}",
                       f"lease/base {ratio:.3f} outside the "
                       f"{LOW_CONTENTION_BAND:.0%} band")


def counter_locks(seed: int, probe: CellProbe, batch: Batch) -> None:
    # 12, not 16, threads at the top: the 16-thread column alone took
    # 5.5 s, too long to fit several batches in one run.
    _sweep(batch, probe, "fig3_counter", (2, 8, 12),
           ("tts", "tts+lease", "ticket", "hticket", "clh"), seed,
           _counter_shape)


def stack_storm(seed: int, probe: CellProbe, batch: Batch) -> None:
    _sweep(batch, probe, "fig2_stack", (8, 16, 32), ("base", "lease"), seed,
           _stack_shape)


def search_lowcont(seed: int, probe: CellProbe, batch: Batch) -> None:
    for exp_id in ("e2_low_contention_bst", "e2_low_contention_hashtable"):
        _sweep(batch, probe, exp_id, (4, 16), ("base", "lease"), seed,
               _low_contention_shape)


# -- check workload -----------------------------------------------------------

def check_links(seed: int, probe: CellProbe, batch: Batch) -> None:
    """Perturbed-schedule linearizability fuzz over a contended
    interconnect.  Schedule ``i`` of a target alternates base and lease,
    takes its strategy from ``strategy_for_schedule(seed, i)`` (indices
    from 1: index 0 is the campaigns' unperturbed baseline) and its machine
    seed from ``seed`` and ``i``.  A schedule fails unless it is
    linearizable or the checker gives up (inconclusive)."""
    for name in CHECK_TARGETS:
        target = resolve_target(name)
        for i in range(1, SCHEDULES_PER_TARGET + 1):
            variant = ("base", "lease")[i % 2]
            cfg = target.config_for(variant)
            cfg = replace(cfg, seed=seed * 1_000 + i,
                          network=replace(cfg.network, spec=LINK_SPEC))
            sid = f"{name}/{variant}/schedule={i}"
            batch.attempted += 1
            batch.schedules += 1
            first = len(probe.invariant_errors)
            try:
                out = run_once(target, variant, cfg,
                               strategy_for_schedule(seed, i))
            except Exception as exc:  # a crash fails this schedule only
                traceback.print_exc(file=sys.stderr)
                batch.fail(sid, f"raised {type(exc).__name__}: {exc}")
                continue
            for error in probe.invariant_errors[first:]:
                if error is not None:
                    batch.fail(sid, f"coherence invariant: {error}")
            if not out.ok:
                batch.fail(sid, f"{out.kind}: {out.detail}")
            batch.inconclusive += out.kind == "inconclusive"
            batch.ops += out.ops
            batch.checked_ops += out.ops
            batch.outputs.append(out)


WORKLOADS: dict[str, Callable[[int, CellProbe, Batch], None]] = {
    "counter_locks": counter_locks,
    "stack_storm": stack_storm,
    "search_lowcont": search_lowcont,
    "check_links": check_links,
}


def run_batch(workload: str, seed: int, profiler: Any = None) -> Batch:
    """Run one batch of ``workload`` and time it, under ``profiler`` if
    given.  ``wall_s`` excludes the probe's post-run invariant audits."""
    batch = Batch()
    with CellProbe(profiler) as probe:
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        try:
            WORKLOADS[workload](seed, probe, batch)
        finally:
            elapsed = time.perf_counter() - t0
            if profiler is not None:
                profiler.disable()
    batch.wall_s = elapsed - probe.audit_s
    batch.setup_s = probe.setup_s
    batch.probe = probe
    blob = json.dumps([asdict(o) for o in batch.outputs], sort_keys=True,
                      default=repr)
    batch.digest = hashlib.sha256(blob.encode()).hexdigest()
    batch.outputs = []
    return batch
