"""Traffic-spec grammar: parse ``--traffic`` strings into a frozen spec.

A spec is one arrival clause plus optional key-distribution, tenancy,
queue, volume, and SLO clauses, in the shared clause grammar of
:mod:`repro.spec` -- the YCSB-style one-liner from the roadmap parses as
written::

    poisson:rate=2.0,zipf:s=1.2,tenants=2
    burst:rate=4,on=3000,off=9000;hotset:frac=0.9,size=8,shift=64;queue=8
    ramp:rate=1.5,period=40000;slo:p99=2500,shed=0.01

Clauses
-------

``poisson:rate=<ops/kcycle>``
    Memoryless arrivals; inter-arrival gaps are exponential draws with
    mean ``1000/rate`` cycles (rounded to >= 1 cycle).

``burst:rate=<ops/kcycle>,on=<cycles>,off=<cycles>``
    On-off (bursty) arrivals: Poisson at ``rate`` during each ``on``
    window, silent for each ``off`` window.

``ramp:rate=<ops/kcycle>,period=<cycles>``
    Diurnal ramp: a full sinusoid of period ``period`` modulates the
    instantaneous rate between ~0 and ``2*rate`` (mean ``rate``).

``uniform`` / ``zipf:s=<exp>`` / ``hotset:frac=<p>,size=<n>[,shift=<k>]``
    Key selection (default ``uniform``): the existing
    :class:`~repro.workloads.generators.UniformKeys` / ``ZipfKeys``
    distributions, or the hot-set-shifting distribution where a ``frac``
    share of draws hits a window of ``size`` keys that slides after
    every ``shift`` draws (default 256).

``tenants=<n>``
    Independent arrival streams per core (default 1), each with its own
    seeded RNG; ops are tagged with their tenant id in trace events.

``queue=<depth>`` (also ``queue:depth=<n>``)
    Bounded admission queue per core (default 16).  An arrival that
    finds its queue full is *shed*: counted, traced, never executed.

``ops=<n>``
    Arrivals generated per stream before it dries up (default: the
    driver's ``ops_per_thread``).

``slo:[p99=<cycles>][,p999=<cycles>][,shed=<frac>]``
    Service-level objective.  The run verdict is ``pass`` iff every
    stated bound holds (p99/p999 latency at or under the bound, shed
    fraction at or under ``shed``); without this clause the verdict is
    ``n/a``.

The parse is strict: unknown clause names, malformed parameters, and
out-of-range values raise :class:`~repro.errors.ConfigError` so a typo'd
``--traffic`` flag fails fast instead of silently free-running.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..spec import Clause, parse_clauses

__all__ = ["TrafficSpec", "parse_traffic_spec"]

#: Default bounded admission-queue depth per core.
DEFAULT_QUEUE_DEPTH = 16

#: Default hot-set slide interval (draws between shifts).
DEFAULT_HOTSET_SHIFT = 256


@dataclass(frozen=True)
class TrafficSpec:
    """Parsed, validated open-loop traffic parameters (the *what*; the
    seeded :class:`~repro.traffic.source.TrafficSource` is the *when*)."""

    #: the original spec string, verbatim (travels in experiment kwargs
    #: and repro-check files so sources can be rebuilt anywhere).
    raw: str = ""
    arrival: str = ""                 # "", "poisson", "burst", "ramp"
    rate: float = 0.0                 # ops per kilocycle, per stream
    on_cycles: int = 0
    off_cycles: int = 0
    period: int = 0
    keys: str = "uniform"
    zipf_s: float = 0.0
    hot_frac: float = 0.0
    hot_size: int = 0
    hot_shift: int = DEFAULT_HOTSET_SHIFT
    tenants: int = 1
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    ops: int = 0                      # 0 -> driver's ops_per_thread
    slo_p99: int | None = None
    slo_p999: int | None = None
    slo_shed: float | None = None

    @property
    def empty(self) -> bool:
        return self.arrival == ""

    @property
    def has_slo(self) -> bool:
        return (self.slo_p99 is not None or self.slo_p999 is not None
                or self.slo_shed is not None)


def _arrival(c: Clause, fields: dict) -> None:
    if "arrival" in fields:
        raise c.error(
            f"second arrival clause (already have {fields['arrival']!r})")
    extra = {"poisson": (), "burst": ("on", "off"),
             "ramp": ("period",)}[c.name]
    params = c.params("rate", *extra, needs=",".join(
        ("rate=<ops/kcycle>",) + tuple(f"{k}=<cycles>" for k in extra)))
    fields["arrival"] = c.name
    fields["rate"] = c.real("rate", params["rate"], strict=True)
    if c.name == "burst":
        fields["on_cycles"] = c.integer("on", params["on"], min_val=1)
        fields["off_cycles"] = c.integer("off", params["off"], min_val=1)
    elif c.name == "ramp":
        fields["period"] = c.integer("period", params["period"], min_val=2)


def _keys(c: Clause, fields: dict) -> None:
    if "keys" in fields:
        raise c.error(
            f"second key clause (already have {fields['keys']!r})")
    fields["keys"] = c.name
    if c.name == "uniform":
        c.params()
    elif c.name == "zipf":
        params = c.params("s", needs="s=<exponent>")
        fields["zipf_s"] = c.real("s", params["s"])
    else:  # hotset
        params = c.params("frac", "size", optional=("shift",),
                          needs="frac=<prob>,size=<keys>")
        fields["hot_frac"] = c.prob("frac", params["frac"])
        fields["hot_size"] = c.integer("size", params["size"], min_val=1)
        if "shift" in params:
            fields["hot_shift"] = c.integer("shift", params["shift"],
                                            min_val=1)


def _scalar(c: Clause, fields: dict) -> None:
    # One integer, spelled tenants=2, tenants:2 or queue:depth=8.
    value = None
    if len(c.args) == 1:
        key, eq, val = c.args[0].partition("=")
        if not eq:
            value = key
        elif key.strip() in (c.name, "depth" if c.name == "queue" else c.name):
            value = val
    if value is None:
        raise c.error(f"expected {c.name}=<int>")
    field_name = "queue_depth" if c.name == "queue" else c.name
    fields[field_name] = c.integer(c.name, value.strip(), min_val=1)


def _slo(c: Clause, fields: dict) -> None:
    params = c.params(optional=("p99", "p999", "shed"),
                      needs="at least one of p99=<cycles>, p999=<cycles>, "
                            "shed=<frac>")
    if "p99" in params:
        fields["slo_p99"] = c.integer("p99", params["p99"], min_val=1)
    if "p999" in params:
        fields["slo_p999"] = c.integer("p999", params["p999"], min_val=1)
    if "shed" in params:
        fields["slo_shed"] = c.prob("shed", params["shed"])


_ARRIVALS = ("poisson", "burst", "ramp")
_CLAUSES = {**dict.fromkeys(_ARRIVALS, _arrival),
            **dict.fromkeys(("uniform", "zipf", "hotset"), _keys),
            **dict.fromkeys(("tenants", "queue", "ops"), _scalar),
            "slo": _slo}


def parse_traffic_spec(spec: str) -> TrafficSpec:
    """Parse a ``--traffic`` spec string.  An empty/whitespace string
    yields an empty spec (``TrafficSpec.empty`` is true -> drivers run
    their usual closed loop, bit-identical to a traffic-free build)."""
    spec = (spec or "").strip()
    fields = parse_clauses("traffic", spec, _CLAUSES)
    if spec and "arrival" not in fields:
        raise ConfigError(
            "traffic spec: needs an arrival clause "
            f"({', '.join(_ARRIVALS)})")
    return TrafficSpec(raw=spec, **fields)
