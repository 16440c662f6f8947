"""Simulation clock and run loop.

The event queue follows the schedule strategy; there is no other choice:

* no strategy -- a bucketed :class:`~repro.engine.wheel.TimeWheel` drained
  by :meth:`Simulator._run_fast`, an inlined loop over whole same-cycle
  buckets without per-event heap traffic.  With no strategy every
  priority is 0, so the deterministic order is exactly ``(time, seq)`` --
  which is precisely bucket order.
* a :class:`~repro.engine.event_queue.ScheduleStrategy` -- the heap-backed
  :class:`~repro.engine.event_queue.EventQueue` and the event-at-a-time
  loop, since the strategy perturbs same-timestamp order via priorities,
  which the wheel does not model.  The base ``ScheduleStrategy`` gives
  every event priority 0, so it runs the wheel's schedule on the heap.

Quiescence is *polled* by default (the predicate runs before every event,
as it always did) so bare simulators with ad-hoc ``quiescent`` lambdas keep
their semantics.  A machine whose predicate only changes at discrete
notification points (thread start/finish) opts into *notify* mode via
:meth:`Simulator.use_quiescence_notify`; the run loops then re-evaluate the
predicate only when :attr:`quiesce_dirty` has been raised, eliding the
no-op polls between notifications without changing when the run stops.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

from ..errors import SimulationError, SimulationTimeout
from .event_queue import Event, EventQueue, ScheduleStrategy
from .wheel import TimeWheel


class Simulator:
    """Drives an event queue forward in virtual time.

    The simulator knows nothing about cores or caches; it only provides
    ``now``, scheduling, a seeded RNG and a run loop with cycle/event
    budgets.  Higher layers register a *quiescence check* so that
    :meth:`run` can stop when all threads have finished even though idle
    events (e.g. never-fired lease expiries) may remain queued.

    ``strategy`` installs a schedule-perturbation
    :class:`~repro.engine.event_queue.ScheduleStrategy` that reorders
    same-timestamp events (used by :mod:`repro.check` to explore
    interleavings) on the heap queue; the default ``None`` keeps the
    classic deterministic ``(time, seq)`` order on the time wheel.
    """

    __slots__ = ("queue", "now", "rng", "max_cycles", "max_events",
                 "events_processed", "quiescent", "_running",
                 "_poll_quiescence", "quiesce_dirty")

    def __init__(self, *, seed: int = 1,
                 max_cycles: int = 2_000_000_000,
                 max_events: int = 200_000_000,
                 strategy: ScheduleStrategy | None = None) -> None:
        # A perturbation strategy needs the priority-aware heap.
        self.queue = (TimeWheel() if strategy is None
                      else EventQueue(strategy))
        self.now: int = 0
        self.rng = random.Random(seed)
        self.max_cycles = max_cycles
        self.max_events = max_events
        self.events_processed: int = 0
        #: Callable returning True when the simulation may stop early.
        self.quiescent: Callable[[], bool] = lambda: False
        self._running = False
        self._poll_quiescence = True
        #: In notify mode: raised whenever the quiescence predicate may
        #: have changed; the run loop clears it after re-evaluating.
        self.quiesce_dirty = True

    # -- scheduling ---------------------------------------------------------

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"scheduling into the past: t={time} < now={self.now}")
        return self.queue.schedule(time, fn, *args)

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.queue.schedule(self.now + delay, fn, *args)

    def cancel(self, ev: Event) -> None:
        self.queue.cancel(ev)

    # -- quiescence notification --------------------------------------------

    def use_quiescence_notify(self) -> None:
        """Stop polling the quiescence predicate before every event; only
        re-evaluate it after :meth:`notify_quiescence`.  Callers guarantee
        they notify at every point the predicate can flip (the Machine does
        so on thread start and finish)."""
        self._poll_quiescence = False
        self.quiesce_dirty = True

    def notify_quiescence(self) -> None:
        """Flag that the quiescence predicate may have changed."""
        self.quiesce_dirty = True

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self) -> dict:
        """Clock/budget progress and RNG stream (the queue serializes
        separately, through a codec)."""
        from ..state.codec import encode_rng

        return {"now": self.now,
                "events_processed": self.events_processed,
                "rng": encode_rng(self.rng)}

    def load_state(self, state: dict) -> None:
        from ..state.codec import decode_rng

        self.now = state["now"]
        self.events_processed = state["events_processed"]
        decode_rng(self.rng, state["rng"])

    # -- run loop -----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Process events until quiescence, the optional ``until`` cycle, or
        a budget is exhausted.  Returns the final simulation time.

        Clock rule: when ``until`` is given, the clock always advances to
        ``until`` unless quiescence stopped the run first -- whether the
        horizon was reached because the next event lies beyond it or
        because the queue drained entirely.  (The clock never moves
        backwards: ``run(until=past)`` leaves it where it was.)  At
        quiescence, or when the queue drains with no horizon, the clock
        stays at the last processed event's time.
        """
        if type(self.queue) is TimeWheel:
            return self._run_fast(until)
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        # The heap loop, with EventQueue.peek_time/pop inlined: heap
        # entries are (time, pri, seq, ev) tuples.  ``heap`` stays valid
        # across handler calls because compaction rewrites it in place.
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        poll = self._poll_quiescence
        quiescent = self.quiescent
        max_cycles = self.max_cycles
        max_events = self.max_events
        has_until = until is not None
        self.quiesce_dirty = True
        try:
            while True:
                if poll or self.quiesce_dirty:
                    self.quiesce_dirty = False
                    if quiescent():
                        return self.now
                # Drop cancelled heads so heap[0] is the next live event;
                # peeking before popping keeps an event beyond the horizon
                # in its (time, pri, seq) place for a later resume.
                while heap and heap[0][3].cancelled:
                    heappop(heap)
                if not heap:
                    # Drained: the clock advances to the horizon, if any.
                    if has_until and until > self.now:
                        self.now = until
                    return self.now
                t = heap[0][0]
                if has_until and t > until:
                    if until > self.now:
                        self.now = until
                    return self.now
                ev = heappop(heap)[3]
                queue._live -= 1
                if t > max_cycles:
                    raise SimulationTimeout(
                        f"simulation exceeded max_cycles={max_cycles}",
                        cycle=t, events=self.events_processed)
                self.now = t
                nev = self.events_processed + 1
                self.events_processed = nev
                if nev > max_events:
                    raise SimulationTimeout(
                        f"simulation exceeded max_events={max_events}"
                        " (livelocked workload?)",
                        cycle=t, events=nev)
                ev.fn(*ev.args)
        finally:
            self._running = False

    def _run_fast(self, until: int | None = None) -> int:
        """The inlined loop over the time-wheel's buckets.

        Event-for-event equivalent to the heap loop above: same stop
        conditions evaluated in the same order, same budget-exception
        payloads, same clock rule.  The win over the heap loop is
        structural: no per-event heap sift, and the horizon and
        cycle-budget checks run once per distinct timestamp.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        q = self.queue
        times = q._times
        buckets = q._buckets
        heappop = heapq.heappop
        poll = self._poll_quiescence
        quiescent = self.quiescent
        max_cycles = self.max_cycles
        max_events = self.max_events
        has_until = until is not None
        consumed = 0
        # The current draining bucket, cached across events.  Handlers can
        # only schedule at >= now == t, so ``t`` stays the minimum time
        # while its bucket has entries; appends to ``lst`` are picked up by
        # re-reading its length, and the exhausted bucket is deleted lazily
        # by the locate loop below (keeping it appendable all cycle).
        t = 0
        lst: list | None = None
        self.quiesce_dirty = True
        try:
            while True:
                if poll or self.quiesce_dirty:
                    self.quiesce_dirty = False
                    if quiescent():
                        return self.now
                if lst is not None:
                    i = lst[0] + 1
                    if i < len(lst):
                        lst[0] = i
                        ev = lst[i]
                        if ev.cancelled:
                            continue
                        consumed += 1
                        nev = self.events_processed + 1
                        self.events_processed = nev
                        if nev > max_events:
                            raise SimulationTimeout(
                                f"simulation exceeded max_events="
                                f"{max_events} (livelocked workload?)",
                                cycle=t, events=nev)
                        ev.fn(*ev.args)
                        continue
                    lst = None
                # Locate the earliest pending bucket without consuming an
                # entry (a deferred event keeps its place).  The horizon
                # and cycle-budget checks ride on the bucket's time, so
                # they run once per distinct timestamp, not per event.
                while times:
                    t = times[0]
                    nxt = buckets[t]
                    if nxt[0] + 1 < len(nxt):
                        break
                    del buckets[heappop(times)]
                else:
                    # Drained: same clock rule as the heap loop.
                    if has_until and until > self.now:
                        self.now = until
                    return self.now
                if has_until and t > until:
                    if until > self.now:
                        self.now = until
                    return self.now
                if t > max_cycles:
                    raise SimulationTimeout(
                        f"simulation exceeded max_cycles={max_cycles}",
                        cycle=t, events=self.events_processed)
                self.now = t
                lst = nxt
        finally:
            q._live -= consumed
            self._running = False
