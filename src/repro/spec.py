"""One grammar for the ``;``-clause spec strings.

``--faults``, ``--network``, ``--traffic`` and ``--cluster`` all take a
spec string in this grammar.  Each family keeps its own frozen dataclass
and clause docs (:mod:`repro.faults.spec`, :mod:`repro.coherence.links`,
:mod:`repro.traffic.spec`, :mod:`repro.cluster.spec`) and declares its
clauses to :func:`parse_clauses` as a ``{name: handler}`` table.

Clauses
    ``;`` always starts a clause, and the token after it must name one
    of the family's clauses.  ``,`` starts a clause when the token's head
    (the text before its first ``:`` or ``=``) names a clause of the
    family; otherwise the token is an argument of the clause on its
    left.  So ``poisson:rate=2,zipf:s=1.2`` parses like
    ``poisson:rate=2;zipf:s=1.2``, and ``slow_core:3@2x,5@4x`` is one
    clause with two entries.  A clause token is ``name``,
    ``name:<arg>`` or ``name=<value>``; in the last form the whole token
    is the clause's first argument.  Empty tokens are skipped, and each
    clause may appear once.

Numbers
    Integers are decimal ``int()`` forms.  Probabilities and reals are
    ``float()`` forms and must be finite.  A symmetric bound may be
    written ``±N``, ``+N``, ``N`` or ``max=N``.

Errors
    Every problem raises :class:`~repro.errors.ConfigError` worded
    ``"<family> spec: <clause>: <problem>"`` (clause-list problems --
    unknown or duplicate clauses -- name the clause instead).
"""

from __future__ import annotations

import math
import re
from typing import Callable, Mapping, Sequence

from .errors import ConfigError

__all__ = ["Clause", "parse_clauses"]

_HEAD = re.compile(r"[:=]")


class Clause:
    """One clause of a spec: its name, its text and its arguments, plus
    readers that word every error the same way."""

    __slots__ = ("family", "name", "text", "args")

    def __init__(self, family: str, name: str, token: str) -> None:
        self.family = family
        self.name = name
        #: the clause as written (its tokens re-joined with ``,``).
        self.text = token
        _, colon, body = token.partition(":")
        body = body.strip()
        if colon:
            self.args = [body] if body else []
        else:
            self.args = [token] if "=" in token else []

    def error(self, problem: str) -> ConfigError:
        return ConfigError(f"{self.family} spec: {self.text}: {problem}")

    def params(self, *required: str, optional: Sequence[str] = (),
               needs: str = "",
               args: Sequence[str] | None = None) -> dict[str, str]:
        """Read ``key=value`` arguments (default: all of this clause's)
        into a dict.  Keys outside ``required + optional`` and repeated
        keys are errors; ``needs`` (what a correct clause looks like) is
        raised when a required key is missing or no key is given."""
        allowed = required + tuple(optional)
        params: dict[str, str] = {}
        for part in self.args if args is None else args:
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq:
                raise self.error(f"expected key=value, got {part!r}")
            if key not in allowed:
                raise self.error(f"unknown parameter {key!r} "
                                 f"(allowed: {', '.join(allowed) or 'none'})")
            if key in params:
                raise self.error(f"duplicate {key!r}")
            params[key] = value.strip()
        if needs and (not params or not params.keys() >= set(required)):
            raise self.error(f"needs {needs}")
        return params

    def integer(self, key: str, value: str, min_val: int = 0) -> int:
        try:
            n = int(value)
        except ValueError:
            raise self.error(f"{key} must be an int, got {value!r}") from None
        if n < min_val:
            raise self.error(f"{key}={n} must be >= {min_val}")
        return n

    def real(self, key: str, value: str, min_val: float = 0.0, *,
             strict: bool = False) -> float:
        """A finite float ``>= min_val`` (``> min_val`` when ``strict``)."""
        x = self._float(key, value)
        if not math.isfinite(x):
            raise self.error(f"{key}={value} must be finite")
        if x < min_val or (strict and x == min_val):
            raise self.error(
                f"{key}={x} must be {'>' if strict else '>='} {min_val:g}")
        return x

    def prob(self, key: str, value: str) -> float:
        p = self._float(key, value)
        if not 0.0 <= p <= 1.0:
            raise self.error(f"{key}={p} out of range [0, 1]")
        return p

    def _float(self, key: str, value: str) -> float:
        try:
            return float(value)
        except ValueError:
            raise self.error(f"{key} must be a float, got {value!r}") from None

    def bound(self) -> int:
        """The clause's ``±N`` skew bound in cycles."""
        value = ",".join(self.args)
        if value.lower().startswith("max="):
            value = value[4:]
        value = value.lstrip("±").lstrip("+").strip()
        if not value:
            raise self.error("needs a skew bound in cycles")
        return self.integer("skew", value)


#: A family's clause handler: reads one clause into the shared fields.
Handler = Callable[[Clause, dict], None]


def parse_clauses(family: str, spec: str,
                  handlers: Mapping[str, Handler]) -> dict:
    """Split ``spec`` into clauses of ``family`` and run each clause's
    handler, in order, over one field dict; return the fields."""
    clauses: list[Clause] = []
    for segment in spec.split(";"):
        opened = False
        for token in segment.split(","):
            token = token.strip()
            if not token:
                continue
            head = _HEAD.split(token, 1)[0].strip()
            if head in handlers:
                clauses.append(Clause(family, head, token))
            elif opened:
                clauses[-1].args.append(token)
                clauses[-1].text += "," + token
            else:
                raise ConfigError(f"{family} spec: unknown clause {head!r} "
                                  f"(known: {', '.join(handlers)})")
            opened = True
    fields: dict = {}
    seen: set[str] = set()
    for clause in clauses:
        if clause.name in seen:
            raise ConfigError(
                f"{family} spec: duplicate clause {clause.name!r}")
        seen.add(clause.name)
        handlers[clause.name](clause, fields)
    return fields
