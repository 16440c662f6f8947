"""repro.faults: spec grammar, seeded plans, and end-to-end determinism.

The contract under test is the PR's headline guarantee: a fault spec is a
pure function of ``(seed, spec string)`` -- byte-identical runs serially
and under ``--jobs`` -- and an *empty* spec changes nothing at all (no
plan object, no RNG draws, no behaviour difference).
"""

import dataclasses

import pytest

from conftest import make_machine

from repro import (ConfigError, FaultPlan, Lease, MachineConfig, Machine,
                   Release, Store, Work, build_plan, parse_fault_spec)
from repro.faults.spec import DEFAULT_NACK_RETRIES
from repro.harness.runner import sweep
from repro.workloads import bench_stack


# -- grammar -----------------------------------------------------------------

def test_parse_full_spec():
    s = parse_fault_spec("net_jitter:p=0.01,max=200;dir_nack:p=0.005;"
                         "timer_skew:±8;slow_core:3@10x")
    assert s.net_jitter_p == 0.01
    assert s.net_jitter_max == 200
    assert s.dir_nack_p == 0.005
    assert s.dir_nack_retries == DEFAULT_NACK_RETRIES
    assert s.timer_skew == 8
    assert s.slow_cores == ((3, 10),)
    assert not s.empty


def test_parse_empty_spec_is_empty():
    assert parse_fault_spec("").empty
    assert parse_fault_spec("  ").empty
    assert parse_fault_spec(None).empty


@pytest.mark.parametrize("form", ["timer_skew:±8", "timer_skew:8",
                                  "timer_skew:max=8", "timer_skew:+8"])
def test_timer_skew_accepts_all_forms(form):
    assert parse_fault_spec(form).timer_skew == 8


def test_dir_nack_retries_override():
    s = parse_fault_spec("dir_nack:p=0.5,retries=2")
    assert s.dir_nack_retries == 2


def test_slow_core_multiple_entries_sorted():
    s = parse_fault_spec("slow_core:5@2x,1@4x")
    assert s.slow_cores == ((1, 4), (5, 2))


FAULT_REJECTS = [
    ("nope:p=1", "unknown clause"),
    ("net_jitter:p=0.5", "needs p=<prob>,max=<cycles>"),
    ("net_jitter:p=2,max=10", "out of range"),
    ("net_jitter:p=x,max=10", "must be a float"),
    ("dir_nack:", "needs p=<prob>"),
    ("dir_nack:p=0.1,q=2", "unknown parameter"),
    ("dir_nack:p=0.1,p=0.2", "duplicate"),
    ("dir_nack:p=0.1;dir_nack:p=0.2", "duplicate clause"),
    ("timer_skew:", "needs a skew bound"),
    ("timer_skew:-8", "must be >= 0"),
    ("slow_core:", "needs <core>@<mult>x"),
    ("slow_core:3", "expected <core>@<mult>x"),
    ("slow_core:3@0x", "must be >= 1"),
    ("slow_core:3@2x,3@4x", "listed twice"),
]


@pytest.mark.parametrize("bad,msg", FAULT_REJECTS)
def test_parse_rejects_malformed_specs(bad, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_fault_spec(bad)


def test_config_validates_slow_core_range():
    with pytest.raises(ConfigError, match="out of range"):
        MachineConfig(num_cores=2, fault_spec="slow_core:5@2x")


# -- plans -------------------------------------------------------------------

def test_build_plan_empty_spec_returns_none():
    assert build_plan("", 1) is None
    assert build_plan("   ", 42) is None


def test_plan_streams_are_deterministic_per_seed():
    spec = "net_jitter:p=0.5,max=100;timer_skew:16"
    a = FaultPlan(parse_fault_spec(spec), 7)
    b = FaultPlan(parse_fault_spec(spec), 7)
    assert [a.net_extra() for _ in range(50)] == \
           [b.net_extra() for _ in range(50)]
    assert [a.timer_skew() for _ in range(50)] == \
           [b.timer_skew() for _ in range(50)]
    c = FaultPlan(parse_fault_spec(spec), 8)
    assert [a.net_extra() for _ in range(50)] != \
           [c.net_extra() for _ in range(50)]


def test_plan_streams_are_independent():
    """Enabling one fault kind must not perturb another kind's draws."""
    skew_only = FaultPlan(parse_fault_spec("timer_skew:16"), 7)
    combined = FaultPlan(parse_fault_spec(
        "timer_skew:16;net_jitter:p=0.5,max=100"), 7)
    for _ in range(20):
        combined.net_extra()          # interleave draws on another stream
    assert [skew_only.timer_skew() for _ in range(50)] == \
           [combined.timer_skew() for _ in range(50)]


def test_should_nack_caps_at_retry_limit():
    plan = FaultPlan(parse_fault_spec("dir_nack:p=1.0,retries=3"), 7)
    assert plan.should_nack(0) and plan.should_nack(2)
    assert not plan.should_nack(3)
    assert not plan.should_nack(100)


def test_retry_delay_positive_and_deterministic():
    a = FaultPlan(parse_fault_spec("dir_nack:p=0.5"), 7)
    b = FaultPlan(parse_fault_spec("dir_nack:p=0.5"), 7)
    da = [a.retry_delay(i) for i in range(1, 9)]
    assert da == [b.retry_delay(i) for i in range(1, 9)]
    assert all(d > 0 for d in da)


def test_core_scale_defaults_to_one():
    plan = FaultPlan(parse_fault_spec("slow_core:1@4x"), 7)
    assert plan.core_scale(1) == 4
    assert plan.core_scale(0) == 1


# -- machine integration -----------------------------------------------------

def _stack_result(fault_spec: str, seed: int = 1):
    cfg = dataclasses.replace(MachineConfig(), fault_spec=fault_spec,
                              seed=seed)
    return bench_stack(4, variant="lease", config=cfg)


def test_fault_free_machine_installs_no_plan():
    m = make_machine(2)
    assert m.faults is None


def test_fault_free_default_is_bit_identical():
    """``fault_spec=""`` must be indistinguishable from a config that
    never mentions faults: identical RunResult, field for field."""
    base = bench_stack(4, variant="lease", config=MachineConfig())
    explicit = _stack_result("")
    assert base == explicit


def test_same_seed_and_spec_is_byte_identical():
    spec = "net_jitter:p=0.05,max=120;dir_nack:p=0.02;timer_skew:8"
    assert _stack_result(spec, seed=7) == _stack_result(spec, seed=7)


def test_faults_actually_change_the_run():
    spec = "net_jitter:p=0.2,max=400;dir_nack:p=0.1"
    clean, faulty = _stack_result(""), _stack_result(spec)
    assert faulty.cycles != clean.cycles


def test_dir_nack_counters_reconcile_with_retries():
    cfg = dataclasses.replace(make_machine(4, seed=3).config,
                              fault_spec="dir_nack:p=0.3")
    m2 = Machine(cfg)
    addr = m2.alloc_var(0)

    def worker(ctx):
        for i in range(10):
            yield Store(addr, i)
            yield Work(5)

    for _ in range(4):
        m2.add_thread(worker)
    m2.run()
    assert m2.counters.dir_nacks > 0
    # Every NACK schedules exactly one retry.
    assert m2.counters.dir_nacks == m2.counters.dir_retries


def test_slow_core_finishes_later():
    def run(spec):
        cfg = MachineConfig(num_cores=2, fault_spec=spec)
        m = Machine(cfg)
        addr = m.alloc_var(0)
        done = {}

        def worker(ctx, tag):
            for i in range(20):
                yield Work(10)
                yield Store(addr + 64 * (1 + tag), i)
            done[tag] = ctx.machine.now

        m.add_thread(worker, 0)
        m.add_thread(worker, 1)
        m.run()
        return done

    clean = run("")
    throttled = run("slow_core:1@8x")
    assert throttled[1] > clean[1] * 4        # core 1 throttled hard
    assert throttled[0] <= clean[0] * 2       # core 0 barely affected
    # One fault_injected event per slow core, emitted at construction.
    assert clean != throttled


def test_timer_skew_changes_lease_duration_but_respects_cap():
    durations = []

    def run(spec):
        cfg = dataclasses.replace(
            MachineConfig(num_cores=1, fault_spec=spec))
        cfg = dataclasses.replace(
            cfg, lease=dataclasses.replace(cfg.lease, enabled=True,
                                           max_lease_time=100))
        m = Machine(cfg)
        from repro import Tracer
        from repro.trace.events import LeaseStarted

        class Grab(Tracer):
            def on_event(self, ev):
                if isinstance(ev, LeaseStarted):
                    durations.append(ev.duration)

        m.attach_tracer(Grab())
        addr = m.alloc_var(0)

        def t0(ctx):
            for _ in range(20):
                yield Lease(addr, 90)
                yield Release(addr)
                yield Work(5)

        m.add_thread(t0)
        m.run()

    run("timer_skew:50")
    assert durations                                # leases did start
    assert all(1 <= d <= 100 for d in durations)    # Prop-1-safe clamp
    assert len(set(durations)) > 1                  # skew actually applied


# -- serial vs parallel sweeps ------------------------------------------------

def test_fault_sweep_parallel_equals_serial():
    """The spec travels inside the picklable config, so --jobs workers
    rebuild identical plans: parallel == serial, cell for cell."""
    cfg = dataclasses.replace(
        MachineConfig(), fault_spec="net_jitter:p=0.05,max=80;"
                                    "dir_nack:p=0.02", seed=5)
    kw = dict(variants={"base": {"variant": "base"},
                        "lease": {"variant": "lease"}},
              thread_counts=(2, 4), config=cfg, ops_per_thread=10)
    serial = sweep(bench_stack, jobs=1, **kw)
    parallel = sweep(bench_stack, jobs=2, **kw)
    assert serial == parallel
