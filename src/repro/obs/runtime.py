"""Process-wide observation switch (the zero-overhead gate).

Hot paths do::

    obs = runtime.active()
    if obs is not None:
        obs.tracer.record(...)

With no observation activated — the default — that is a module-global
read and an ``is None`` test; no object is allocated, no branch of the
simulation changes, and the golden fixtures stay byte-identical (the
regression suite asserts this).  Activating an :class:`Observation`
turns the same paths into span/metric producers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from .metrics import MetricsRegistry
from .slo import SloTracker
from .spans import Tracer

if TYPE_CHECKING:
    from .fleet import FleetAggregator

__all__ = [
    "Observation",
    "activate",
    "active",
    "deactivate",
    "observing",
    "suspended",
]


@dataclass
class Observation:
    """A tracer plus a metrics registry, activated as one unit.

    The optional ``slo`` feed receives streaming request/signal samples
    from the serving layers; the optional ``fleet`` aggregator hands
    out per-host child observations under ``ClusterPlatform.serve``.
    Both default to ``None`` so plain single-platform observation pays
    nothing for the fleet machinery.
    """

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    slo: SloTracker | None = None
    fleet: "FleetAggregator | None" = None


_ACTIVE: Observation | None = None


def active() -> Observation | None:
    """The activated observation, or ``None`` (the zero-overhead case)."""
    return _ACTIVE


def activate(obs: Observation) -> Observation:
    """Install ``obs`` as the process-wide observation."""
    global _ACTIVE
    _ACTIVE = obs
    return obs


def deactivate() -> None:
    """Turn observation off again."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def observing(obs: Observation | None = None) -> Iterator[Observation]:
    """Activate an observation for a ``with`` block (fresh by default)."""
    target = obs if obs is not None else Observation()
    previous = active()
    activate(target)
    try:
        yield target
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)


@contextmanager
def suspended() -> Iterator[None]:
    """Switch observation off for a ``with`` block, then restore it.

    For work whose spans and metrics the caller emits itself afterwards
    (the batch path's one restore per cohort), or that must emit nothing
    at all (a restore that turns out to need the scalar fallback)."""
    previous = active()
    deactivate()
    try:
        yield
    finally:
        if previous is not None:
            activate(previous)
