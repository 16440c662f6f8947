"""Cluster-fault grammar: parse ``--cluster`` strings into a frozen spec.

The inter-node network (:mod:`repro.cluster.internode`) is adversarial by
configuration: every unreliability knob -- link latency, message loss,
duplication, partitions, clock skew -- comes from one spec string in the
shared clause grammar of :mod:`repro.spec`::

    delay:min=60,max=160;loss:p=0.05;dup:p=0.02;partition:p=0.01,len=2000;skew:±40

Clauses
-------

``delay:min=<cycles>,max=<cycles>``
    Per-message one-way latency drawn uniformly from ``[min, max]``
    (default 50..150 when the clause is absent).

``loss:p=<prob>``
    Each inter-node message is independently dropped with probability
    ``p``.

``dup:p=<prob>``
    Each *delivered* message is delivered a second time with probability
    ``p`` (the copy draws its own latency; PaxosLease must be duplicate-
    idempotent).

``partition:p=<prob>,len=<cycles>[,check=<cycles>]``
    Every ``check`` cycles (default 500) the network weather is rolled:
    with probability ``p`` a random bipartition of the nodes is cut for
    ``len`` cycles (messages across the cut are dropped), after which it
    heals.

``skew:±<cycles>`` (also accepts ``<cycles>`` or ``max=<cycles>``)
    Each node's local lease timers drift by a per-timer uniform draw from
    ``[-cycles, +cycles]``.  PaxosLease stays safe under any drift within
    the bound: proposers shorten their local expiry by the full bound
    while acceptors lengthen theirs by the drawn skew.

The parse is strict: unknown clause names, malformed parameters, and
out-of-range values raise :class:`~repro.errors.ConfigError` so a typo'd
``--cluster`` flag fails fast instead of silently testing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..spec import Clause, parse_clauses

__all__ = ["ClusterFaultSpec", "parse_cluster_spec"]

#: Default per-message latency window (cycles) when no ``delay`` clause
#: is given: wide enough that rounds overlap, short against lease terms.
DEFAULT_DELAY_MIN = 50
DEFAULT_DELAY_MAX = 150

#: Default weather-roll period for ``partition`` clauses (cycles).
DEFAULT_PARTITION_CHECK = 500


@dataclass(frozen=True)
class ClusterFaultSpec:
    """Parsed, validated inter-node unreliability parameters (the *what*;
    the seeded streams inside :class:`~repro.cluster.internode.
    InterNodeNetwork` are the *when*)."""

    #: the original spec string, verbatim (travels inside ClusterConfig
    #: and repro-cluster files so clusters can be rebuilt anywhere).
    raw: str = ""
    delay_min: int = DEFAULT_DELAY_MIN
    delay_max: int = DEFAULT_DELAY_MAX
    loss_p: float = 0.0
    dup_p: float = 0.0
    partition_p: float = 0.0
    partition_len: int = 0
    partition_check: int = DEFAULT_PARTITION_CHECK
    skew: int = 0

    @property
    def empty(self) -> bool:
        """True when every unreliability knob is off (latency is still
        modeled -- a cluster network is never a same-cycle wire)."""
        return (self.loss_p == 0.0 and self.dup_p == 0.0
                and self.partition_p == 0.0 and self.skew == 0)


def _delay(c: Clause, fields: dict) -> None:
    params = c.params("min", "max", needs="min=<cycles>,max=<cycles>")
    lo = c.integer("min", params["min"], min_val=1)
    hi = c.integer("max", params["max"], min_val=1)
    if hi < lo:
        raise c.error(f"max={hi} < min={lo}")
    fields["delay_min"], fields["delay_max"] = lo, hi


def _loss_or_dup(c: Clause, fields: dict) -> None:
    params = c.params("p", needs="p=<prob>")
    fields[f"{c.name}_p"] = c.prob("p", params["p"])


def _partition(c: Clause, fields: dict) -> None:
    params = c.params("p", "len", optional=("check",),
                      needs="p=<prob>,len=<cycles>")
    fields["partition_p"] = c.prob("p", params["p"])
    fields["partition_len"] = c.integer("len", params["len"], min_val=1)
    if "check" in params:
        fields["partition_check"] = c.integer("check", params["check"],
                                              min_val=1)


def _skew(c: Clause, fields: dict) -> None:
    fields["skew"] = c.bound()


_CLAUSES = {"delay": _delay, "loss": _loss_or_dup, "dup": _loss_or_dup,
            "partition": _partition, "skew": _skew}


def parse_cluster_spec(spec: str) -> ClusterFaultSpec:
    """Parse a ``--cluster`` spec string.  An empty/whitespace string
    yields a reliable network with the default latency window."""
    spec = (spec or "").strip()
    return ClusterFaultSpec(raw=spec,
                            **parse_clauses("cluster", spec, _CLAUSES))
