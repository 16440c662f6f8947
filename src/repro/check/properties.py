"""Lease-specific correctness properties, checked over the trace stream.

Beyond linearizability of the data structures, the lease mechanism itself
makes promises the checker should hold it to:

* **Proposition 1 (bounded deferral).**  A probe queued behind a lease is
  serviced within ``MAX_LEASE_TIME`` cycles of being queued -- the paper's
  starvation-freedom bound.  (The per-line "at most one queued probe"
  half of Proposition 1 is already enforced by
  :class:`~repro.trace.invariants.InvariantTracer`.)
* **MultiLease address order.**  A hardware multilease acquires its lines
  in sorted address order (Section 4's deadlock-avoidance rule); the
  ``LeaseStarted`` events a core emits for one multilease group must be
  strictly increasing in line address.
* **Deadlock freedom** is checked empirically by the campaign: a run that
  exhausts its (small) event budget without quiescing is reported as a
  timeout failure, which under multilease workloads is exactly what a
  lease-order deadlock looks like.

Violations raise :class:`PropertyViolation` from inside ``emit``, which
unwinds through ``Simulator.run`` with the cycle of the offending event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

from ..errors import ProtocolError
from ..trace.bus import Tracer
from ..trace.events import (ClusterLeaseAcquired, ClusterLeaseExpired,
                            ClusterLeaseReleased, LeaseProbeQueued,
                            LeaseReleased, LeaseStarted, MultiLeaseIssued,
                            ProbeServiced, TraceEvent)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.machine import Machine

__all__ = ["PropertyViolation", "LeasePropertyTracer",
           "ClusterLeaseSafetyTracer"]


class PropertyViolation(ProtocolError):
    """A lease-specific property (Proposition 1 bound, multilease order)
    was violated."""


class LeasePropertyTracer(Tracer):
    """Checks the Proposition-1 deferral bound and multilease sort order."""

    def __init__(self) -> None:
        self._machine: "Machine | None" = None
        self._max_defer = 0
        #: (core, line) -> cycle the probe was queued at that core.
        self._queued: dict[tuple[int, int], int] = {}
        #: core -> [lines remaining in the current multilease group,
        #:          last line started] for cores inside a multilease.
        self._group: dict[int, list] = {}
        #: worst observed deferral, for reporting.
        self.max_observed_defer = 0
        self.probes_checked = 0
        self.groups_checked = 0

    def bind(self, machine: "Machine") -> None:
        self._machine = machine
        self._max_defer = machine.config.lease.max_lease_time
        self._queued.clear()
        self._group.clear()

    def interests(self) -> Collection[type]:
        # Every other kind stays on the bus's allocation-free fast path.
        return (LeaseProbeQueued, ProbeServiced, MultiLeaseIssued,
                LeaseStarted, LeaseReleased)

    def on_event(self, ev: TraceEvent) -> None:
        kind = type(ev)
        if kind is LeaseProbeQueued:
            self._queued[(ev.core, ev.line)] = ev.t
        elif kind is ProbeServiced:
            when = self._queued.pop((ev.core, ev.line), None)
            if when is None:
                return      # probe serviced immediately, never deferred
            delay = ev.t - when
            self.probes_checked += 1
            if delay > self.max_observed_defer:
                self.max_observed_defer = delay
            # The bound is the lease timer plus the cycle the expiry
            # handler itself takes to run.
            if delay > self._max_defer + 1:
                raise PropertyViolation(
                    f"Proposition 1 violated: probe on line {ev.line:#x} at "
                    f"core {ev.core} deferred {delay} cycles "
                    f"(MAX_LEASE_TIME={self._max_defer}), queued at cycle "
                    f"{when}, serviced at {ev.t}")
        elif kind is MultiLeaseIssued:
            if ev.ignored:
                self._group.pop(ev.core, None)
            else:
                self._group[ev.core] = [ev.n, None]
            self.groups_checked += 1
        elif kind is LeaseStarted:
            group = self._group.get(ev.core)
            if group is None:
                return      # single-line lease: no ordering obligation
            remaining, last = group
            if last is not None and ev.line <= last:
                raise PropertyViolation(
                    f"multilease out of address order at core {ev.core}: "
                    f"line {ev.line:#x} started after {last:#x} (hardware "
                    f"multilease must acquire in sorted order)")
            group[1] = ev.line
            group[0] = remaining - 1
            if group[0] <= 0:
                del self._group[ev.core]
        elif kind is LeaseReleased:
            # Any release ends the core's pending group expectation: a
            # broken/fifo release mid-group means the group was abandoned.
            self._group.pop(ev.core, None)

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec=None) -> dict:
        return {
            "queued": [[c, l, t] for (c, l), t in self._queued.items()],
            "group": [[c, list(g)] for c, g in self._group.items()],
            "max_observed_defer": self.max_observed_defer,
            "probes_checked": self.probes_checked,
            "groups_checked": self.groups_checked,
        }

    def load_state(self, state: dict, codec=None) -> None:
        self._queued = {(c, l): t for c, l, t in state["queued"]}
        self._group = {c: list(g) for c, g in state["group"]}
        self.max_observed_defer = state["max_observed_defer"]
        self.probes_checked = state["probes_checked"]
        self.groups_checked = state["groups_checked"]

    def summary(self) -> dict:
        return {"probes_checked": self.probes_checked,
                "max_observed_defer": self.max_observed_defer,
                "groups_checked": self.groups_checked}


class ClusterLeaseSafetyTracer(Tracer):
    """PaxosLease safety: at most one node holds an object at any instant.

    Attach to a :class:`~repro.cluster.cluster.Cluster`'s bus.  Holders
    only ever appear via ``cluster_lease_acquired`` events, so checking
    at each acquire -- is any *other* node's recorded lease still
    unexpired at this cycle? -- covers every instant.  Expiry bounds are
    the *proposer-side* ``expires_at`` (exclusive: a lease granted until
    ``T`` and one acquired at ``T`` do not overlap), which is the bound
    PaxosLease actually promises; acceptor-side slots live strictly
    longer.  ``cluster_lease_expired`` / ``_released`` retire holders
    early, but a missing one is harmless -- the timestamp check already
    ages entries out.
    """

    def __init__(self) -> None:
        self._cluster = None
        #: obj -> {node: (expires_at, ballot)} for every granted lease
        #: not yet known to have ended.
        self._holders: dict[int, dict[int, tuple[int, int]]] = {}
        self.acquires_checked = 0
        self.max_live_holders = 0

    def bind(self, cluster) -> None:
        self._cluster = cluster
        self._holders.clear()

    def interests(self) -> Collection[type]:
        return (ClusterLeaseAcquired, ClusterLeaseExpired,
                ClusterLeaseReleased)

    def on_event(self, ev: TraceEvent) -> None:
        kind = type(ev)
        if kind is ClusterLeaseAcquired:
            now = ev.t
            held = self._holders.setdefault(ev.obj, {})
            # Age out stale entries, then demand exclusivity.
            for node in [n for n, (exp, _) in held.items() if exp <= now]:
                del held[node]
            for node, (exp, ballot) in held.items():
                if node != ev.node:
                    raise PropertyViolation(
                        f"cluster lease safety violated on object {ev.obj}: "
                        f"node {ev.node} acquired (ballot {ev.ballot}, "
                        f"expires {ev.expires_at}) at cycle {now} while "
                        f"node {node} still holds (ballot {ballot}, "
                        f"expires {exp})")
            held[ev.node] = (ev.expires_at, ev.ballot)
            self.acquires_checked += 1
            if len(held) > self.max_live_holders:
                self.max_live_holders = len(held)
        elif kind is ClusterLeaseExpired or kind is ClusterLeaseReleased:
            held = self._holders.get(ev.obj)
            if held is not None:
                held.pop(ev.node, None)

    # -- checkpointing (repro.state) ----------------------------------------

    def state_dict(self, codec=None) -> dict:
        return {
            "holders": [[obj, sorted([n, exp, b]
                                     for n, (exp, b) in held.items())]
                        for obj, held in sorted(self._holders.items())],
            "acquires_checked": self.acquires_checked,
            "max_live_holders": self.max_live_holders,
        }

    def load_state(self, state: dict, codec=None) -> None:
        self._holders = {obj: {n: (exp, b) for n, exp, b in held}
                         for obj, held in state["holders"]}
        self.acquires_checked = state["acquires_checked"]
        self.max_live_holders = state["max_live_holders"]

    def summary(self) -> dict:
        return {"acquires_checked": self.acquires_checked,
                "max_live_holders": self.max_live_holders}
