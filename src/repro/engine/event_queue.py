"""A cancellable, deterministic event queue.

Events are ordered by ``(time, pri, seq)`` where ``seq`` is a monotonically
increasing insertion counter and ``pri`` is a perturbation priority
(0 unless a schedule-exploration strategy is installed), so simultaneous
events fire in the order they were scheduled.  This gives bit-for-bit
reproducible simulations for a fixed seed, which the test suite relies on.

A :class:`ScheduleStrategy` (see :mod:`repro.check.perturb`) may be
installed to assign nonzero priorities to events at schedule time.  This
reorders *same-timestamp* events only -- the primary ``time`` key is never
touched -- so timing semantics are preserved while the tie-breaking order
among simultaneous events is explored.  With no strategy installed every
priority is 0 and the order is exactly the classic ``(time, seq)``.

Heap entries are ``(time, pri, seq, ev)`` tuples rather than bare
:class:`Event` objects, so every sift step compares tuples of ints in C
instead of calling a Python ``__lt__``.  ``seq`` is unique, so the
comparison never reaches ``ev``.

Cancellation is lazy: cancelled events stay in the heap and are skipped on
pop (the standard idiom for heap-backed schedulers; O(1) cancel).  When
dead entries outnumber live ones (and there are enough of them to matter)
the heap is compacted in place, so workloads that cancel heavily -- e.g.
every lease acquisition schedules an expiry that a voluntary release
cancels -- keep the heap linear in the number of *live* events.
Compaction rewrites the same list object (``heap[:] = ...``), so a run
loop holding a reference to it mid-run keeps seeing the live heap, and it
re-heapifies the surviving entries by their stored ``(time, pri, seq)``
keys, so a strategy's chosen order among equal-time events survives
compaction unchanged.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import SimulationError


class ScheduleStrategy:
    """Assigns a perturbation priority to each event at schedule time.

    The default implementation returns 0 for every event, which reproduces
    the classic ``(time, seq)`` order.  Subclasses (seeded random, PCT-style,
    replay -- see :mod:`repro.check.perturb`) override :meth:`priority`;
    smaller priorities fire earlier among events with the same timestamp.
    Strategies must be deterministic functions of their own seed and the
    events they have seen, never of wall-clock or global state.
    """

    def priority(self, ev: "Event") -> int:
        return 0


class Event:
    """A scheduled callback.  Returned by :meth:`EventQueue.schedule` so the
    caller can later :meth:`EventQueue.cancel` it."""

    __slots__ = ("time", "pri", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int,
                 fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.pri = 0
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        pri = f" p{self.pri}" if self.pri else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time}{pri} #{self.seq} {name}{state}>"


class EventQueue:
    """Min-heap of ``(time, pri, seq, Event)`` entries."""

    #: Compact only once at least this many cancelled entries accumulate
    #: (avoids rebuilding tiny heaps over and over).
    COMPACT_MIN_DEAD = 64

    __slots__ = ("_heap", "_seq", "_live", "strategy")

    def __init__(self, strategy: ScheduleStrategy | None = None) -> None:
        self._heap: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Optional perturbation strategy consulted once per scheduled
        #: event.  None means "no perturbation": every priority is 0.
        self.strategy = strategy

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical heap length, including cancelled entries (tests)."""
        return len(self._heap)

    def schedule(self, time: int, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at t={time}")
        seq = self._seq
        ev = Event(time, seq, fn, args)
        if self.strategy is not None:
            ev.pri = self.strategy.priority(ev)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, ev.pri, seq, ev))
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel a pending event.  Cancelling twice is a no-op."""
        if not ev.cancelled:
            ev.cancelled = True
            self._live -= 1
            dead = len(self._heap) - self._live
            if dead >= self.COMPACT_MIN_DEAD and dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.  O(n) in heap length --
        amortized O(1) per cancel, since at least half the heap is dead
        whenever this runs.  Ordering is untouched: surviving events keep
        their (time, pri, seq) keys -- including any strategy-assigned
        priorities -- so determinism is preserved.  The list is rewritten
        in place: :meth:`Simulator.run` holds it across handler calls,
        and a handler's cancel may land here."""
        heap = self._heap
        heap[:] = [e for e in heap if not e[3].cancelled]
        heapq.heapify(heap)

    def pop(self) -> Event | None:
        """Pop and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if not ev.cancelled:
                self._live -= 1
                return ev
        return None

    def peek_time(self) -> int | None:
        """Time of the earliest live event without popping it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # -- checkpointing (repro.state) ----------------------------------------

    @property
    def next_seq(self) -> int:
        """The seq the next scheduled event will receive (the shrinker's
        prefix-checkpoint watermark)."""
        return self._seq

    def state_dict(self, codec) -> dict:
        """Live events as serializable descriptors.

        Cancelled entries are dropped -- they are behaviorally invisible
        (skipped on pop) and their callbacks may reference dead objects.
        Events are saved in full ``(time, pri, seq)`` order so the tree is
        canonical regardless of the heap's internal layout.
        """
        live = sorted(entry for entry in self._heap
                      if not entry[3].cancelled)
        return {
            "seq": self._seq,
            "events": [[time, pri, seq, codec.encode_fn(e.fn),
                        codec.encode(e.args)]
                       for time, pri, seq, e in live],
        }

    def load_state(self, state: dict, codec) -> dict[int, Event]:
        """Rebuild the heap from descriptors; returns the ``seq -> Event``
        map so stored event references (lease expiry timers) can relink.
        The strategy is *not* consulted: each event keeps the priority it
        was assigned when originally scheduled."""
        heap = self._heap
        heap.clear()
        for time, pri, seq, fn_desc, args_enc in state["events"]:
            ev = Event(time, seq, codec.decode_fn(fn_desc),
                       codec.decode(args_enc))
            ev.pri = pri
            heap.append((time, pri, seq, ev))
        heapq.heapify(heap)
        self._live = len(heap)
        self._seq = state["seq"]
        return {seq: ev for _, _, seq, ev in heap}
