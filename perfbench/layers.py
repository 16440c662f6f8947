"""Per-layer host time and counts from a cProfile run of one workload.

Layers are named after ``repro`` modules.  A Python function's self time
goes to the layer of the module that defines it.  Self time of a C builtin
(``heapq``, ``deque``, ``dict`` methods, generator ``send``) or of a stdlib
Python function (``random``, ``dataclasses``) has no layer of its own: it is
split over its callers by the per-caller self time cProfile records, and
climbs until it reaches a ``repro`` module.  What cannot be charged that way
(the benchmark's own frames, the profiler itself) is ``other``.

``engine`` is the whole ``repro.engine`` package; ``engine.wheel`` and
``engine.event_queue`` are two parts of it, so they are not added again.
"""

from __future__ import annotations

import os

#: ``repro`` module (dotted, relative to the package) -> layer.  A module
#: not listed takes the entry of its nearest listed parent package.  The
#: packages that stay idle on every workload -- cluster, traffic, faults,
#: state -- are deliberately unlisted: their time lands in ``other``.
MODULE_LAYERS = {
    "engine": "engine",
    "core": "core",
    "coherence.directory": "coherence.directory",
    "coherence.memunit": "coherence.memunit",
    "coherence.cache": "coherence.cache",
    "coherence.l2": "coherence.cache",
    "coherence.states": "coherence.cache",
    "coherence.network": "coherence.network",
    "coherence.messages": "coherence.network",
    "coherence.links": "coherence.links",
    "lease": "lease",
    "sync": "sync",
    "structures": "structures",
    "mem": "mem",
    "trace": "trace",
    "check": "check",
    "harness": "workloads",
    "workloads": "workloads",
    "stats": "workloads",
    "config": "workloads",
    "errors": "workloads",
}
LAYERS = tuple(dict.fromkeys(MODULE_LAYERS.values())) + ("other",)
#: Modules reported as parts of ``engine.self_s``.
ENGINE_PARTS = ("engine.wheel", "engine.event_queue")

#: Public entry points whose call counts are reported:
#: metric -> ((module, function), ...).  ``LinkedNetwork.send`` replaces
#: ``MeshNetwork.send`` on a finite-bandwidth mesh (no ``super()`` call), so
#: the two never count one message twice.
ENTRY_CALLS = {
    "coherence.directory.issue_calls": (("coherence.directory", "issue"),),
    "coherence.memunit.access_calls": (("coherence.memunit", "access"),),
    "coherence.network.send_calls": (("coherence.network", "send"),
                                     ("coherence.links", "send")),
    "trace.emit_calls": (("trace.bus", "emit"),),
}


class Attribution:
    """Self time and entry-point call counts per layer of one profile.

    ``stats`` is ``pstats.Stats(profile).stats``:
    ``{(file, line, func): (cc, nc, tt, ct, callers)}``, where ``callers``
    maps each caller to its ``(nc, cc, tt, ct)`` share of the callee.
    """

    def __init__(self, stats: dict, package_dir: str) -> None:
        self._stats = stats
        self._pkg = os.path.join(os.path.realpath(package_dir), "")
        self._modules: dict[str, str | None] = {}
        self._shares: dict[tuple, dict[str | None, float] | None] = {}
        by_module: dict[str | None, float] = {}
        self.calls = dict.fromkeys(ENTRY_CALLS, 0)
        for func, (_cc, nc, tt, _ct, _callers) in stats.items():
            for mod, share in self._share(func).items():
                by_module[mod] = by_module.get(mod, 0.0) + tt * share
            entry = (self._module(func[0]), func[2])
            for metric, entries in ENTRY_CALLS.items():
                if entry in entries:
                    self.calls[metric] += nc
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.parts_s = dict.fromkeys(ENGINE_PARTS, 0.0)
        for mod, seconds in by_module.items():
            self.self_s[self._layer(mod)] += seconds
            if mod in self.parts_s:
                self.parts_s[mod] += seconds

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def _module(self, filename: str) -> str | None:
        """Dotted ``repro`` module of ``filename``, or None outside it."""
        mod = self._modules.get(filename, "")
        if mod == "":
            path = os.path.realpath(filename)
            mod = None
            if path.startswith(self._pkg) and path.endswith(".py"):
                mod = path[len(self._pkg):-3].replace(os.sep, ".")
                mod = mod.removesuffix(".__init__")
            self._modules[filename] = mod
        return mod

    @staticmethod
    def _layer(mod: str | None) -> str:
        parts = mod.split(".") if mod is not None else []
        for n in range(len(parts), 0, -1):
            layer = MODULE_LAYERS.get(".".join(parts[:n]))
            if layer is not None:
                return layer
        return "other"

    def _share(self, func: tuple) -> dict[str | None, float]:
        """How ``func``'s self time splits over ``repro`` modules (None:
        uncharged).  A builtin or stdlib function inherits its callers'
        split, weighted by the self time each caller accounts for; a call
        cycle among such functions is cut and charged as uncharged."""
        mod = self._module(func[0])
        if mod is not None:
            return {mod: 1.0}
        if func in self._shares:
            return self._shares[func] or {None: 1.0}
        entry = self._stats.get(func)
        if entry is None or not (func[0] == "~" or _is_stdlib(func[0])):
            return {None: 1.0}
        self._shares[func] = None      # in progress: cuts call cycles
        callers = entry[4]
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: v[0] for c, v in callers.items()}
        total = sum(weights.values())
        out: dict[str | None, float] = {}
        if total <= 0:
            out[None] = 1.0
        for caller, w in weights.items():
            if w > 0:
                for m, share in self._share(caller).items():
                    out[m] = out.get(m, 0.0) + share * w / total
        self._shares[func] = out
        return out


def _is_stdlib(filename: str) -> bool:
    """True for a file of the interpreter's standard library."""
    path = os.path.realpath(filename)
    return path.startswith(_STDLIB) and "site-packages" not in path


_STDLIB = os.path.join(os.path.realpath(os.path.dirname(os.__file__)), "")
