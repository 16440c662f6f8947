"""A bucketed time-wheel: the event queue of strategy-free runs.

Drop-in replacement for :class:`~repro.engine.event_queue.EventQueue` when
no :class:`~repro.engine.event_queue.ScheduleStrategy` is installed (every
priority is 0, so the deterministic order is exactly ``(time, seq)``).

Events scheduled for the same cycle land in one per-time *bucket* in
insertion order -- which IS ``seq`` order, because ``seq`` is the global
insertion counter -- so a bucket is drained front-to-back with no
comparisons at all.  A min-heap of the *distinct* bucket times replaces the
per-event heap: its pushes/pops are plain int comparisons and there is one
per distinct timestamp instead of one per event.

Bucket layout: ``_buckets[time]`` is a list whose slot 0 holds the cursor
(index of the last consumed entry) and whose remaining slots are the
events.  A handler that schedules more work at the *current* cycle appends
to the bucket being drained, and the drain loop picks it up because it
re-reads the bucket length -- exactly matching the heap's behavior for an
event scheduled at ``now`` during processing.  Exhausted buckets are
deleted lazily on the *next* pop, so a bucket stays alive (and appendable)
for the whole cycle it is draining.

Cancellation marks the event and skips it on pop, like the heap, but the
wheel never compacts: a cancelled event is reclaimed when its cycle passes.
Memory is therefore bounded by the events within the scheduling horizon
(e.g. pending lease expiries), not by the total cancel count.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import SimulationError
from .event_queue import Event


class TimeWheel:
    """Bucketed event queue ordered by ``(time, seq)``.

    Implements the full :class:`EventQueue` interface (schedule / cancel /
    pop / peek_time / state_dict / load_state / len / heap_size) with the
    identical canonical checkpoint format, so checkpoints round-trip
    between the two queues.  ``strategy`` is always ``None``.
    """

    __slots__ = ("_buckets", "_times", "_seq", "_live", "strategy")

    def __init__(self) -> None:
        # time -> [cursor, ev1, ev2, ...]; see module docstring.
        self._buckets: dict[int, list] = {}
        # Min-heap of distinct bucket times still holding a bucket.
        self._times: list[int] = []
        self._seq = 0
        self._live = 0
        #: Interface parity with EventQueue: the wheel never perturbs.
        self.strategy = None

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Pending physical entries, including cancelled ones (tests)."""
        return sum(len(lst) - 1 - lst[0] for lst in self._buckets.values())

    @property
    def _heap(self) -> list[Event]:
        """Pending events as a flat list, cancelled entries included
        (test introspection)."""
        return [ev for lst in self._buckets.values()
                for ev in lst[lst[0] + 1:]]

    def schedule(self, time: int, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at t={time}")
        ev = Event(time, self._seq, fn, args)
        self._seq += 1
        self._live += 1
        lst = self._buckets.get(time)
        if lst is None:
            self._buckets[time] = [0, ev]
            heapq.heappush(self._times, time)
        else:
            lst.append(ev)
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel a pending event.  Cancelling twice is a no-op."""
        if not ev.cancelled:
            ev.cancelled = True
            self._live -= 1

    def pop(self) -> Event | None:
        """Pop and return the earliest live event, or None if empty."""
        times = self._times
        buckets = self._buckets
        while times:
            lst = buckets[times[0]]
            i = lst[0] + 1
            if i >= len(lst):
                del buckets[heapq.heappop(times)]
                continue
            lst[0] = i
            ev = lst[i]
            if not ev.cancelled:
                self._live -= 1
                return ev
        return None

    def peek_time(self) -> int | None:
        """Time of the earliest live event without popping it."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            lst = buckets[t]
            i = lst[0] + 1
            n = len(lst)
            while i < n and lst[i].cancelled:
                # Skipping a cancelled entry consumes it, like the heap's
                # peek popping cancelled heads.
                lst[0] = i
                i += 1
            if i < n:
                return t
            del buckets[heapq.heappop(times)]
        return None

    # -- checkpointing (repro.state) ----------------------------------------

    @property
    def next_seq(self) -> int:
        """The seq the next scheduled event will receive (the shrinker's
        prefix-checkpoint watermark)."""
        return self._seq

    def state_dict(self, codec) -> dict:
        """Identical canonical format to :meth:`EventQueue.state_dict`:
        live events in full ``(time, pri, seq)`` order."""
        live = sorted((e for lst in self._buckets.values()
                       for e in lst[lst[0] + 1:] if not e.cancelled),
                      key=lambda e: (e.time, e.pri, e.seq))
        return {
            "seq": self._seq,
            "events": [[e.time, e.pri, e.seq, codec.encode_fn(e.fn),
                        codec.encode(e.args)] for e in live],
        }

    def load_state(self, state: dict, codec) -> dict[int, Event]:
        """Rebuild the buckets from descriptors; returns the
        ``seq -> Event`` map so stored event references (lease expiry
        timers) can relink.  Descriptors arrive sorted by
        ``(time, pri, seq)``, so appending in order reproduces each
        bucket's drain order exactly."""
        self._buckets = {}
        events = []
        for time, pri, seq, fn_desc, args_enc in state["events"]:
            ev = Event(time, seq, codec.decode_fn(fn_desc),
                       codec.decode(args_enc))
            ev.pri = pri
            events.append(ev)
            lst = self._buckets.get(time)
            if lst is None:
                self._buckets[time] = [0, ev]
            else:
                lst.append(ev)
        self._times = sorted(self._buckets)
        self._live = len(events)
        self._seq = state["seq"]
        return {e.seq: e for e in events}
