"""The controller's and the platform's telemetry vocabulary.

Operators need to see what TOSS is doing per function — phase changes,
snapshot generations, re-profiling triggers — without scraping logs.
Each milestone is an event named ``telemetry/<kind>`` on the active
observation's tracer (:mod:`repro.obs.runtime`); with no observation
active nothing is emitted.
"""

from __future__ import annotations

import enum

__all__ = ["EventKind"]


class EventKind(enum.Enum):
    """The controller's observable milestones."""

    INITIAL_EXECUTION = "initial-execution"
    PROFILING_INVOCATION = "profiling-invocation"
    PATTERN_CONVERGED = "pattern-converged"
    SNAPSHOT_GENERATED = "snapshot-generated"
    TIERED_INVOCATION = "tiered-invocation"
    REPROFILE_TRIGGERED = "reprofile-triggered"
    RESTORE_RETRIED = "restore-retried"
    FALLBACK_RESTORE = "fallback-restore"
    PHASE_DEGRADED = "phase-degraded"
    TIER_BACKPRESSURE = "tier-backpressure"
    REQUEST_SHED = "request-shed"
    DEADLINE_ABORTED = "deadline-aborted"
    BREAKER_TRANSITION = "breaker-transition"
    HEALTH_TRANSITION = "health-transition"
