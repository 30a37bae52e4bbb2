"""Field domains: the values a config field accepts, declared once.

A numeric dataclass field declares its domain where it is defined
(``interval_s: float = real(2.0, gt=0.0)``, a :func:`dataclasses.field`
with the domain in its metadata), and ``__post_init__`` calls
:func:`check_fields` with the class's :class:`~repro.errors.ReproError`
subclass, which then names ``Class.field`` and the value.  A ``bool`` is
never a number, a count takes only integers (:class:`numbers.Integral`)
and a real any :class:`numbers.Real`, finite unless its interval is
closed at ``inf`` (a field whose ``inf`` means "never binds").
"""

from __future__ import annotations

import dataclasses
import functools
import math
from numbers import Integral, Real
from typing import Any

from .errors import ReproError

__all__ = ["Domain", "RealDomain", "CountDomain", "OptionalDomain", "declare",
           "real", "count", "probability", "seed", "optional", "check_value",
           "check_fields"]


@dataclasses.dataclass(frozen=True)
class RealDomain:
    """A real in an interval of the extended reals, each end excluded when
    open: ``[0, inf)`` is a finite real >= 0, ``[0, inf]`` admits ``inf``
    too.  NaN compares false, so no interval admits it."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True

    def admits(self, value: Any) -> bool:
        if type(value) is not float and (
            isinstance(value, bool) or not isinstance(value, Real)
        ):
            return False
        if not (self.lo < value if self.lo_open else self.lo <= value):
            return False
        return self.hi > value if self.hi_open else self.hi >= value

    def __str__(self) -> str:
        kind = "a real" if self.hi == math.inf and not self.hi_open else "a finite real"
        left, right = "(" if self.lo_open else "[", ")" if self.hi_open else "]"
        return f"{kind} in {left}{self.lo:g}, {self.hi:g}{right}"


@dataclasses.dataclass(frozen=True)
class CountDomain:
    """An integer of at least ``least``."""

    least: int

    def admits(self, value: Any) -> bool:
        if type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, Integral)
        ):
            return False
        return self.least <= value

    def __str__(self) -> str:
        return f"an integer >= {self.least}"


@dataclasses.dataclass(frozen=True)
class OptionalDomain:
    """``None`` (the knob is off) or a value of ``inner``."""

    inner: RealDomain | CountDomain

    def admits(self, value: Any) -> bool:
        return value is None or self.inner.admits(value)

    def __str__(self) -> str:
        return f"None or {self.inner}"


Domain = RealDomain | CountDomain | OptionalDomain


def declare(domain: Domain, default: Any = dataclasses.MISSING) -> Any:
    """A dataclass field of ``domain`` (required when no default)."""
    return dataclasses.field(default=default, metadata={"domain": domain})


def real(
    default: Any = dataclasses.MISSING,
    *,
    gt: float | None = None,
    ge: float | None = None,
    lt: float | None = None,
    le: float | None = None,
    inf_ok: bool = False,
) -> Any:
    """A real field bounded by ``gt``/``ge`` below and ``lt``/``le`` above;
    finite unless ``inf_ok`` (then an unbounded top admits ``inf``)."""
    lo = gt if gt is not None else ge if ge is not None else -math.inf
    hi = lt if lt is not None else le if le is not None else math.inf
    hi_open = lt is not None or (le is None and not inf_ok)
    return declare(RealDomain(lo, hi, ge is None, hi_open), default)


def count(default: Any = dataclasses.MISSING, *, least: int = 0) -> Any:
    """An integer field of at least ``least``."""
    return declare(CountDomain(least), default)


def probability(default: Any = dataclasses.MISSING) -> Any:
    """A real field in ``[0, 1]``."""
    return real(default, ge=0.0, le=1.0)


def seed(default: Any = dataclasses.MISSING) -> Any:
    """A random seed: an integer >= 0, as :mod:`numpy.random` takes."""
    return count(default, least=0)


def optional(declared: Any) -> Any:
    """``declared``'s domain or ``None``, which is the default."""
    return declare(OptionalDomain(declared.metadata["domain"]), None)


def check_value(
    domain: Domain, value: object, what: str, error: type[ReproError]
) -> None:
    """Raise ``error`` naming ``what`` unless ``value`` is in ``domain``."""
    if not domain.admits(value):
        raise error(f"{what} must be {domain}, got {value!r}")


@functools.cache
def _declared(cls: type[Any]) -> tuple[tuple[str, Domain], ...]:
    return tuple(
        (f.name, f.metadata["domain"])
        for f in dataclasses.fields(cls)
        if "domain" in f.metadata
    )


def check_fields(obj: object, error: type[ReproError]) -> None:
    """Check every declared field of a dataclass instance, in order."""
    cls = type(obj)
    for name, domain in _declared(cls):
        value = getattr(obj, name)
        if not domain.admits(value):
            raise error(f"{cls.__name__}.{name} must be {domain}, got {value!r}")
