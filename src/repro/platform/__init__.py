"""Serverless platform substrate.

* :mod:`~repro.platform.scheduler` — concurrent-invocation execution with
  shared-resource contention (drives Figure 9).
* :mod:`~repro.platform.arrival` — request arrival processes (Poisson,
  fixed-rate, bursty) for end-to-end platform simulations.
* :mod:`~repro.platform.server` — a registry-based platform serving
  request streams through any of the systems under evaluation.
* :mod:`~repro.platform.overload` — the overload-resilience layer:
  bounded admission, deadlines, circuit breakers and the platform
  degradation ladder.
"""

from .scheduler import ConcurrencyResult, Scheduler
from .arrival import poisson_arrivals, fixed_arrivals, bursty_arrivals
from .server import FunctionDeployment, ServerlessPlatform, RequestLogEntry
from .keepalive import CacheEntry, KeepAliveCache
from .capacity import HostCapacity, ResidentVM, packing_density
from .prewarm import ArrivalPredictor, PrewarmPolicy
from .overload import (
    BreakerState,
    CircuitBreaker,
    DegradationLadder,
    HealthState,
    OverloadConfig,
    OverloadPolicy,
    RequestClass,
    ShedReason,
)

__all__ = [
    "ConcurrencyResult",
    "Scheduler",
    "poisson_arrivals",
    "fixed_arrivals",
    "bursty_arrivals",
    "FunctionDeployment",
    "ServerlessPlatform",
    "RequestLogEntry",
    "CacheEntry",
    "KeepAliveCache",
    "HostCapacity",
    "ResidentVM",
    "packing_density",
    "ArrivalPredictor",
    "PrewarmPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DegradationLadder",
    "HealthState",
    "OverloadConfig",
    "OverloadPolicy",
    "RequestClass",
    "ShedReason",
]
