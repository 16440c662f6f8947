"""Fault-spec grammar: parse ``--faults`` strings into a frozen spec.

A spec is a list of fault clauses in the shared clause grammar of
:mod:`repro.spec` (``;`` or ``,`` between clauses, ``,`` between
parameters)::

    net_jitter:p=0.01,max=200;dir_nack:p=0.005;timer_skew:±8;slow_core:3@10x

Clauses
-------

``net_jitter:p=<prob>,max=<cycles>``
    Each network message independently suffers an extra latency of
    1..max cycles with probability ``p``.

``dir_nack:p=<prob>[,retries=<n>]``
    Each directory request arrival is NACKed with probability ``p`` and
    retried after randomized exponential backoff; a request is never
    NACKed more than ``retries`` times (default 8) so forward progress
    is guaranteed.

``timer_skew:±<cycles>`` (also accepts ``<cycles>`` or ``max=<cycles>``)
    Each lease expiry timer is skewed by a uniform draw from
    ``[-cycles, +cycles]``, clamped so the effective duration stays in
    ``[1, max_lease_time]`` (preserving the Proposition-1 bound).

``slow_core:<core>@<mult>x[,<core>@<mult>x...]``
    The named cores retire instructions ``mult``x slower (straggler
    cores / IPC throttling).

``link_degrade:p=<prob>[,factor=<mult>][,queue=<cap>]``
    Each contended-interconnect resource (egress link, directory port,
    memory port; see :mod:`repro.coherence.links`) is independently
    degraded with probability ``p`` at machine build time: its
    cycles-per-flit cost is multiplied by ``factor`` (default 4) and,
    when ``queue`` is given, its bounded queue is shrunk to at most
    ``queue`` entries.  Only meaningful together with a non-empty
    ``--network`` spec; on the contention-free model there are no link
    resources to degrade, so the clause is a no-op.

The parse is strict: unknown clause names, malformed parameters, and
out-of-range values raise :class:`~repro.errors.ConfigError` so a typo'd
``--faults`` flag fails fast instead of silently injecting nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spec import Clause, parse_clauses

__all__ = ["FaultSpec", "parse_fault_spec"]

#: NACK cap when a ``dir_nack`` clause does not name one: a request is
#: retried at most this many times before it is allowed through, so a
#: high ``p`` cannot livelock the directory.
DEFAULT_NACK_RETRIES = 8


@dataclass(frozen=True)
class FaultSpec:
    """Parsed, validated fault parameters (the *what*; the seeded
    :class:`~repro.faults.plan.FaultPlan` is the *when*)."""

    #: the original spec string, verbatim (travels inside MachineConfig
    #: and repro-check files so plans can be rebuilt anywhere).
    raw: str = ""
    net_jitter_p: float = 0.0
    net_jitter_max: int = 0
    dir_nack_p: float = 0.0
    dir_nack_retries: int = DEFAULT_NACK_RETRIES
    timer_skew: int = 0
    #: ((core_id, multiplier), ...) sorted by core id.
    slow_cores: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    link_degrade_p: float = 0.0
    link_degrade_factor: int = 4
    #: 0 = leave each degraded resource's queue capacity untouched.
    link_degrade_queue: int = 0

    @property
    def empty(self) -> bool:
        return (self.net_jitter_p == 0.0 and self.dir_nack_p == 0.0
                and self.timer_skew == 0 and not self.slow_cores
                and self.link_degrade_p == 0.0)


def _net_jitter(c: Clause, fields: dict) -> None:
    params = c.params("p", "max", needs="p=<prob>,max=<cycles>")
    fields["net_jitter_p"] = c.prob("p", params["p"])
    fields["net_jitter_max"] = c.integer("max", params["max"], min_val=1)


def _dir_nack(c: Clause, fields: dict) -> None:
    params = c.params("p", optional=("retries",), needs="p=<prob>")
    fields["dir_nack_p"] = c.prob("p", params["p"])
    if "retries" in params:
        fields["dir_nack_retries"] = c.integer("retries", params["retries"],
                                               min_val=1)


def _timer_skew(c: Clause, fields: dict) -> None:
    fields["timer_skew"] = c.bound()


def _slow_core(c: Clause, fields: dict) -> None:
    if not c.args:
        raise c.error("needs <core>@<mult>x entries")
    cores: dict[int, int] = {}
    for part in c.args:
        if "@" not in part:
            raise c.error(f"expected <core>@<mult>x, got {part!r}")
        core_s, _, mult_s = part.partition("@")
        core = c.integer("core", core_s.strip())
        mult_s = mult_s.strip()
        if mult_s.lower().endswith("x"):
            mult_s = mult_s[:-1]
        mult = c.integer("multiplier", mult_s, min_val=1)
        if core in cores:
            raise c.error(f"core {core} listed twice")
        cores[core] = mult
    fields["slow_cores"] = tuple(sorted(cores.items()))


def _link_degrade(c: Clause, fields: dict) -> None:
    params = c.params("p", optional=("factor", "queue"), needs="p=<prob>")
    fields["link_degrade_p"] = c.prob("p", params["p"])
    if "factor" in params:
        fields["link_degrade_factor"] = c.integer("factor", params["factor"],
                                                  min_val=2)
    if "queue" in params:
        fields["link_degrade_queue"] = c.integer("queue", params["queue"],
                                                 min_val=1)


_CLAUSES = {"net_jitter": _net_jitter, "dir_nack": _dir_nack,
            "timer_skew": _timer_skew, "slow_core": _slow_core,
            "link_degrade": _link_degrade}


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse a ``--faults`` spec string.  An empty/whitespace string
    yields an empty spec (``FaultSpec.empty`` is true -> no plan is
    installed and behaviour is bit-identical to a fault-free build)."""
    spec = (spec or "").strip()
    return FaultSpec(raw=spec, **parse_clauses("fault", spec, _CLAUSES))
