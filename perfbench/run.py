"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the simulator from ``src/``.
``BENCHMARK.json`` names the workloads and the metrics with their units.

``--trace 0`` measures the end-to-end metrics with tracing off.  The
workload's fixed batch runs back to back, for at least ``MIN_BATCHES``
batches and otherwise until the next batch would overrun ``--seconds``;
times are medians over the batches.  ``--trace 1`` runs one untraced batch
as the reference, then profiles batches under cProfile for ``--seconds``
(at least one) and reports the per-layer metrics (see ``layers.py``).

Every batch is checked: the coherence invariants after each cell, the
workload's paper-shape checks, and that every batch of the run produced
the same simulated outputs (the digest).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (operations, i.e.
sweep cells or checked schedules, over all batches) and ``metrics``.  The
digest, the failures and the profile are also written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time

from layers import ENGINE_PARTS, Attribution

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Fewest batches a run times, even when they overrun ``--seconds``.
MIN_BATCHES = 2
#: Fresh interpreters timed importing the package; set-up reports the median.
IMPORT_SAMPLES = 5
#: The traced run fails when more of its self time than this is charged to
#: no layer: the split would no longer explain where host time went.
OTHER_SHARE_LIMIT = 0.05
#: What ``setup_s`` counts as the import: the package and the API modules
#: the workloads call.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import repro, repro.harness, repro.check.campaign, repro.check.perturb\n"
    "print(time.perf_counter() - t0)\n")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout)


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the layer did no such work."""
    return num / den if den else 0.0


def end_to_end(workload: str, seed: int, seconds: int, suite) -> tuple:
    batches = []
    t0 = time.perf_counter()
    while True:
        batches.append(suite.run_batch(workload, seed))
        elapsed = time.perf_counter() - t0
        per_batch = elapsed / len(batches)
        if len(batches) >= MIN_BATCHES and elapsed + per_batch > seconds:
            break
    import_s = statistics.median(
        _import_seconds() for _ in range(IMPORT_SAMPLES))
    wall = statistics.median(b.wall_s for b in batches)
    metrics = {
        "wall_s": wall,
        "sim_ops_per_s": batches[0].ops / wall,
        "setup_s": import_s + statistics.median(b.setup_s for b in batches),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{workload}: {len(batches)} batches of {batches[0].ops} ops, "
          f"batch wall times {[round(b.wall_s, 3) for b in batches]}, "
          f"import {import_s:.3f} s")
    return batches, metrics, None


def per_layer(workload: str, seed: int, seconds: int, suite) -> tuple:
    ref = suite.run_batch(workload, seed)
    profile = cProfile.Profile()
    traced = []
    t0 = time.perf_counter()
    while not traced or (time.perf_counter() - t0) * (
            len(traced) + 1) / len(traced) <= seconds:
        traced.append(suite.run_batch(workload, seed, profile))
    n = len(traced)
    attr = Attribution(pstats.Stats(profile).stats,
                       os.path.join(SRC, "repro"))
    other_share = attr.self_s["other"] / attr.total_s
    if other_share > OTHER_SHARE_LIMIT:
        raise RuntimeError(
            f"{other_share:.1%} of profiled self time is charged to no "
            f"layer (limit {OTHER_SHARE_LIMIT:.0%}); extend "
            "layers.MODULE_LAYERS")

    probe = ref.probe
    k = probe.counters
    ops = k["ops_completed"]
    metrics = {f"{layer}.self_s": s / n for layer, s in attr.self_s.items()}
    metrics.update({f"{part}.self_s": attr.parts_s[part] / n
                    for part in ENGINE_PARTS})
    metrics.update({name: c // n for name, c in attr.calls.items()})
    metrics.update({
        "engine.events": probe.events,
        "engine.host_ns_per_event": ref.wall_s / probe.events * 1e9,
        "core.sim_cycles": probe.cycles,
        "core.ops": ops,
        "coherence.directory.queued_requests": k["dir_queued_requests"],
        "coherence.directory.max_queue_depth": probe.max_queue_depth,
        "coherence.directory.invalidations": k["invalidations_sent"],
        "coherence.memunit.probes_deferred":
            k["probes_deferred_mid_access"],
        "coherence.cache.l1_hit_ratio":
            _ratio(k["l1_hits"], k["l1_hits"] + k["l1_misses"]),
        "coherence.cache.l2_accesses": k["l2_accesses"],
        "coherence.cache.dram_accesses": k["dram_accesses"],
        "coherence.network.messages": k["messages"],
        "coherence.network.msgs_per_op": _ratio(k["messages"], ops),
        "coherence.network.hops": k["hops"],
        "coherence.links.flits": k["link_flits"],
        "coherence.links.queued": k["link_queued"],
        "coherence.links.stall_cycles": k["link_stall_cycles"],
        "coherence.links.port_stalls": k["port_stalls"],
        "lease.requested": k["leases_requested"],
        "lease.grant_ratio":
            _ratio(k["leases_granted"], k["leases_requested"]),
        "lease.releases_involuntary": k["releases_involuntary"],
        "lease.probes_queued": k["probes_queued_at_core"],
        "sync.cas_success_ratio":
            _ratio(k["cas_attempts"] - k["cas_failures"], k["cas_attempts"]),
        "sync.lock_failure_ratio":
            _ratio(k["lock_acquire_failures"], k["lock_acquire_attempts"]),
        "check.schedules": ref.schedules,
        "check.ops_checked": ref.checked_ops,
        "check.inconclusive_frac": _ratio(ref.inconclusive, ref.schedules),
        "profile.overhead_x":
            statistics.median(b.wall_s for b in traced) / ref.wall_s,
    })
    print(f"{workload}: reference batch {ref.wall_s:.3f} s, {n} profiled "
          f"batches, {other_share:.2%} of self time uncharged")
    return [ref, *traced], metrics, profile


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choices: {', '.join(workloads)}")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no simulator sources under {SRC}; run from the root "
                     "of a repository checkout")

    sys.path.insert(0, SRC)
    import suite

    measure = per_layer if args.trace else end_to_end
    batches, values, profile = measure(args.workload, args.seed,
                                       args.seconds, suite)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    digests = sorted({b.digest for b in batches})
    failures: dict[str, str] = {}
    for b in batches:
        failures.update(b.failures)
    attempted = sum(b.attempted for b in batches)
    failed = sum(len(b.failures) for b in batches)
    deterministic = len(digests) == 1

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"digest {args.workload} seed={args.seed} {digests[0]}")
    for op, reason in sorted(failures.items()):
        print(f"FAILED {op}: {reason}")
    if not deterministic:
        print(f"FAILED determinism: {len(digests)} different output digests "
              "from one seed")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "digests": digests, "failures": failures,
                   "metrics": metrics}, f, indent=1, sort_keys=True)
    if profile is not None:
        profile.dump_stats(stem + ".prof")

    print(json.dumps({"correct": failed == 0 and deterministic,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
