"""Simulator run loop: clock, budgets, quiescence, scheduling rules."""

import pytest

from repro.engine import Simulator
from repro.errors import SimulationError, SimulationTimeout


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.at(10, lambda: seen.append(sim.now))
    sim.at(25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [10, 25]
    assert sim.now == 25


def test_after_is_relative():
    sim = Simulator()
    seen = []

    def first():
        sim.after(5, lambda: seen.append(sim.now))

    sim.at(10, first)
    sim.run()
    assert seen == [15]


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_until_stops_and_preserves_pending():
    sim = Simulator()
    seen = []
    sim.at(10, lambda: seen.append("a"))
    sim.at(100, lambda: seen.append("b"))
    sim.run(until=50)
    assert seen == ["a"]
    assert sim.now == 50
    sim.run()
    assert seen == ["a", "b"]


def test_until_advances_clock_when_queue_drains():
    """The queue emptying before the horizon must not strand the clock at
    the last event: run(until=N) means 'simulate N cycles'."""
    sim = Simulator()
    sim.at(10, lambda: None)
    assert sim.run(until=50) == 50
    assert sim.now == 50


def test_until_on_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run(until=30) == 30
    assert sim.now == 30


def test_until_in_the_past_never_moves_clock_backwards():
    sim = Simulator()
    sim.at(40, lambda: None)
    sim.run()
    assert sim.now == 40
    assert sim.run(until=10) == 40
    assert sim.now == 40


def test_quiescence_beats_until_horizon():
    """Quiescence stops the run first: the clock stays at the last
    processed event, not the horizon."""
    sim = Simulator()
    done = []
    sim.quiescent = lambda: bool(done)
    sim.at(5, lambda: done.append(True))
    sim.run(until=100)
    assert sim.now == 5


def test_deferred_event_fires_after_resume():
    """An event beyond the horizon keeps its (time, seq) slot: scheduling
    more work before resuming must not reorder same-time events."""
    sim = Simulator()
    seen = []
    sim.at(100, lambda: seen.append("first"))
    sim.run(until=50)
    assert sim.now == 50 and seen == []
    sim.at(100, lambda: seen.append("second"))
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 100


def test_incremental_until_equals_single_run():
    """Stepping the horizon forward in chunks processes the same events in
    the same order as one uninterrupted run."""
    def build():
        sim = Simulator()
        seen = []
        for t in (3, 7, 7, 12, 30):
            sim.at(t, lambda t=t: seen.append((sim.now, t)))
        return sim, seen

    sim_a, seen_a = build()
    sim_a.run()
    sim_b, seen_b = build()
    for horizon in (5, 7, 10, 29, 31, 40):
        sim_b.run(until=horizon)
        assert sim_b.now == horizon
    assert seen_a == seen_b


def test_max_events_budget():
    sim = Simulator(max_events=100)

    def tick():
        sim.after(1, tick)

    sim.at(0, tick)
    with pytest.raises(SimulationTimeout) as exc:
        sim.run()
    assert exc.value.events == 101


def test_max_cycles_budget():
    sim = Simulator(max_cycles=1000)
    sim.at(2000, lambda: None)
    with pytest.raises(SimulationTimeout):
        sim.run()


def test_quiescence_stops_early():
    sim = Simulator()
    seen = []
    done = []
    sim.quiescent = lambda: bool(done)
    sim.at(1, lambda: (seen.append(1), done.append(True)))
    sim.at(1000, lambda: seen.append(2))   # never fires: quiescent first
    sim.run()
    assert seen == [1]


def test_cancel_through_simulator():
    sim = Simulator()
    seen = []
    ev = sim.at(5, lambda: seen.append(1))
    sim.cancel(ev)
    sim.run()
    assert seen == []


def test_run_not_reentrant():
    sim = Simulator()
    err = []

    def inner():
        try:
            sim.run()
        except SimulationError as e:
            err.append(e)

    sim.at(1, inner)
    sim.run()
    assert len(err) == 1


def test_rng_is_seeded():
    a = Simulator(seed=42).rng.random()
    b = Simulator(seed=42).rng.random()
    c = Simulator(seed=43).rng.random()
    assert a == b
    assert a != c


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.at(i, lambda: None)
    sim.run()
    assert sim.events_processed == 7


# -- the heap loop (a schedule strategy installed) ------------------------------

def _heap_sim(**kw) -> Simulator:
    from repro.engine import EventQueue, ScheduleStrategy

    sim = Simulator(strategy=ScheduleStrategy(), **kw)
    assert type(sim.queue) is EventQueue
    return sim


@pytest.mark.parametrize("make", [Simulator, _heap_sim],
                         ids=["wheel", "heap"])
def test_budget_payloads_and_clock_rule_on_both_loops(make):
    """The two run loops share stop conditions, exception payloads and
    the clock rule; this pins the heap loop to the wheel's answers."""
    sim = make(max_events=100)

    def tick():
        sim.after(1, tick)

    sim.at(0, tick)
    with pytest.raises(SimulationTimeout) as exc:
        sim.run()
    assert (exc.value.events, exc.value.cycle) == (101, 100)

    sim = make(max_cycles=1000)
    sim.at(5, lambda: None)
    sim.at(2000, lambda: None)
    with pytest.raises(SimulationTimeout) as exc:
        sim.run()
    assert (exc.value.events, exc.value.cycle) == (1, 2000)

    sim = make()
    seen = []
    dead = sim.at(3, lambda: seen.append("dead"))
    sim.at(3, lambda: seen.append(3))
    sim.at(50, lambda: seen.append(50))
    sim.cancel(dead)
    assert sim.run(until=10) == 10 and seen == [3]
    assert sim.run(until=200) == 200 and seen == [3, 50]
    assert sim.run() == 200 and sim.events_processed == 2


def test_compaction_mid_run_keeps_heap_order():
    """A handler cancels enough pending events to trigger the queue's
    compaction while the run loop holds the heap list, then schedules
    more work.  No cancelled event may fire, and every survivor -- old
    and new -- must fire in (time, pri, seq) order."""
    import random

    from repro.engine import EventQueue, ScheduleStrategy

    class Jitter(ScheduleStrategy):
        def __init__(self) -> None:
            self.rng = random.Random(5)

        def priority(self, ev) -> int:
            return self.rng.randint(0, 3)

    sim = Simulator(strategy=Jitter())
    events, fired = [], []

    def record(i):
        fired.append(i)

    def add(t):
        events.append(sim.at(t, record, len(events)))

    def killer():
        doomed = [e for e in events if e.seq % 4]
        assert len(doomed) >= EventQueue.COMPACT_MIN_DEAD
        before = sim.queue.heap_size
        for e in doomed:
            sim.cancel(e)
        assert sim.queue.heap_size < before - EventQueue.COMPACT_MIN_DEAD
        for t in range(30, 50):
            add(t)

    for t in range(10, 60):
        for _ in range(4):
            add(t)
    sim.at(5, killer)
    sim.run(until=40)
    sim.run()

    live = [e for e in events if not e.cancelled]
    assert not set(fired) & {i for i, e in enumerate(events) if e.cancelled}
    expect = sorted(range(len(events)),
                    key=lambda i: (events[i].time, events[i].pri,
                                   events[i].seq))
    assert fired == [i for i in expect if not events[i].cancelled]
    assert len(fired) == len(live) == 50 + 20
