"""Deterministic discrete-event simulation kernel.

This package is the shared timing substrate the platform runs on: one
:class:`~repro.sim.loop.EventLoop` of plain callbacks with a stable
``(time, priority, seq)`` heap, and an engine
(:class:`~repro.sim.contention.EventScheduler`) that turns
shared-hardware contention into an emergent property of the event
schedule instead of a per-batch fixed-point solve.  Both of its modes
report utilization through one summary
(:func:`~repro.sim.contention.summarize_utilization`).

Layers above:

* :mod:`repro.memsim.bandwidth` exposes its per-resource capacities to
  the engine (``ContentionModel.capacities``); the analytic solver stays
  as the single-batch equilibrium the engine reproduces byte-for-byte.
* :mod:`repro.durability.scrub` merges its copies' per-chunk reads on
  one heap, paced by the SSD's operation budget.
* :mod:`repro.platform.scheduler` is a thin shim over the engine;
  :meth:`repro.platform.server.ServerlessPlatform.serve` schedules
  arrivals, capacity leases and telemetry on one timeline.
"""

from .loop import EventLoop
from .contention import EventScheduler, TimelineJob
from .timing import InvocationTiming, normalized_slowdown

__all__ = [
    "EventLoop",
    "EventScheduler",
    "InvocationTiming",
    "TimelineJob",
    "normalized_slowdown",
]
