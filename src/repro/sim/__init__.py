"""Deterministic discrete-event simulation kernel.

This package is the shared timing substrate the platform runs on: one
:class:`~repro.sim.loop.EventLoop` with a stable ``(time, priority, seq)``
heap, generator-based :class:`~repro.sim.loop.Process` coroutines that
yield :class:`~repro.sim.loop.Delay`, a rate-limiting
:class:`~repro.sim.resources.TokenBucket`, and an engine
(:class:`~repro.sim.contention.EventScheduler`) that turns
shared-hardware contention into an emergent property of the event
schedule instead of a per-batch fixed-point solve.

Layers above:

* :mod:`repro.memsim.bandwidth` exposes its per-resource capacities to
  the engine (``ContentionModel.capacities``); the analytic solver stays
  as the single-batch equilibrium the engine reproduces byte-for-byte.
* :mod:`repro.durability.scrub` runs each scrub scan as a process that
  draws its SSD reads from a token bucket.
* :mod:`repro.platform.scheduler` is a thin shim over the engine;
  :meth:`repro.platform.server.ServerlessPlatform.serve` schedules
  arrivals, capacity leases and telemetry on one timeline.
"""

from .loop import Delay, EventLoop, Process
from .resources import TokenBucket
from .contention import EventScheduler, TimelineJob, UtilizationSample
from .timing import InvocationTiming, normalized_slowdown

__all__ = [
    "Delay",
    "EventLoop",
    "EventScheduler",
    "InvocationTiming",
    "Process",
    "TimelineJob",
    "TokenBucket",
    "UtilizationSample",
    "normalized_slowdown",
]
