#!/usr/bin/env python3
"""Seeded wheel-vs-heap event-queue identity fuzz.

Each round draws a random cell from the feature grid -- workload,
protocol, leases, fault spec, core count, op count -- and runs it twice:
once with no schedule strategy (the time wheel) and once under the base
``ScheduleStrategy`` (the heap event queue, every priority 0).  The two
runs must agree *bit for bit*: field-for-field identical ``RunResult``,
same ``events_processed``, same final cycle.

On a divergence the two RunResults (plus the cell needed to reproduce
it) are dumped under ``--artifact-dir`` for CI to upload, and the script
exits 1.

Run:  python examples/engine_identity.py --rounds 30 --seed 1
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from dataclasses import replace

from repro.config import MachineConfig
from repro.core.isa import Store, Work
from repro.core.machine import Machine
from repro.engine import ScheduleStrategy
from repro.structures import LockedCounter, MichaelScottQueue, TreiberStack

FAULT_SPECS = (
    "",
    "net_jitter:p=0.1,max=40",
    "dir_nack:p=0.05;timer_skew:4",
    "net_jitter:p=0.02,max=120;dir_nack:p=0.01",
)


def build_machine(cell: dict, heap: bool) -> Machine:
    cfg = MachineConfig(num_cores=cell["threads"],
                        protocol=cell["protocol"],
                        fault_spec=cell["faults"],
                        seed=cell["machine_seed"])
    if cell["leases"]:
        cfg = replace(cfg, lease=replace(cfg.lease, enabled=True))
    m = Machine(cfg, schedule_strategy=ScheduleStrategy() if heap else None)
    if cell["workload"] == "treiber":
        s = TreiberStack(m)
        s.prefill(range(16))
        for _ in range(cell["threads"]):
            m.add_thread(s.update_worker, cell["ops"])
    elif cell["workload"] == "msqueue":
        q = MichaelScottQueue(m, variant="multi" if cell["leases"]
                              else "single")
        q.prefill(range(16))
        for _ in range(cell["threads"]):
            m.add_thread(q.update_worker, cell["ops"])
    elif cell["workload"] == "storm":
        addr = m.alloc_var(0, label="identity.storm")

        def body(ctx, rounds=cell["ops"]):
            for i in range(rounds):
                yield Store(addr, i)
                yield Work(3)
            ctx.note_op()

        for _ in range(cell["threads"]):
            m.add_thread(body)
    else:
        c = LockedCounter(m, lock="tts")
        for _ in range(cell["threads"]):
            m.add_thread(c.update_worker, cell["ops"])
    return m


def draw_cell(rng: random.Random) -> dict:
    return {
        "workload": rng.choice(("treiber", "msqueue", "counter", "storm")),
        "protocol": rng.choice(("msi", "mesi")),
        "leases": rng.random() < 0.5,
        "faults": rng.choice(FAULT_SPECS),
        "threads": rng.choice((1, 2, 4, 8)),
        "ops": rng.randrange(6, 24),
        "machine_seed": rng.randrange(1, 10_000),
    }


def run_round(i: int, cell: dict, artifact_dir: str) -> bool:
    mw = build_machine(cell, heap=False)
    mh = build_machine(cell, heap=True)
    mw.run()
    mh.run()
    rw = dataclasses.asdict(mw.result("identity"))
    rh = dataclasses.asdict(mh.result("identity"))
    ok = (rw == rh
          and mw.sim.events_processed == mh.sim.events_processed
          and mw.sim.now == mh.sim.now)
    if not ok:
        path = os.path.join(artifact_dir, f"engine-identity-{i}.json")
        with open(path, "w") as f:
            json.dump({"cell": cell,
                       "wheel": {"result": rw,
                                 "events": mw.sim.events_processed,
                                 "now": mw.sim.now},
                       "heap": {"result": rh,
                                "events": mh.sim.events_processed,
                                "now": mh.sim.now}},
                      f, indent=2, sort_keys=True, default=str)
        print(f"DIVERGENCE round {i}: {cell} (dump: {path})",
              file=sys.stderr)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--artifact-dir", default="engine-identity-artifacts")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    os.makedirs(args.artifact_dir, exist_ok=True)
    failures = 0
    for i in range(args.rounds):
        cell = draw_cell(rng)
        if not run_round(i, cell, args.artifact_dir):
            failures += 1
    print(f"{args.rounds - failures}/{args.rounds} cells identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
