"""Structured controller telemetry.

Operators need to see what TOSS is doing per function — phase changes,
snapshot generations, re-profiling triggers — without scraping logs.
:class:`TelemetryLog` collects typed events; the controller emits them
when a log is attached (zero overhead otherwise).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["EventKind", "TelemetryEvent", "TelemetryLog"]


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


@dataclass(frozen=True)
class TelemetryEvent:
    """One milestone with its context.

    ``at_s`` is the simulated timestamp of the milestone, when the
    emitter knows one (the event-driven platform always stamps its
    shed/breaker/health events).  It lives only on the field: the
    transition-release mirror into ``detail["at_s"]`` is gone, and
    passing a timestamp through ``detail`` is rejected so stragglers
    fail loudly instead of silently dropping their timestamps.
    """

    kind: EventKind
    function: str
    invocation: int
    detail: dict = field(default_factory=dict)
    at_s: float | None = None

    def __post_init__(self) -> None:
        if "at_s" in self.detail:
            raise ValueError(
                "pass the timestamp as the at_s field, not in detail"
            )


class TelemetryLog:
    """An in-memory event sink, indexed by kind."""

    def __init__(self) -> None:
        self.events: list[TelemetryEvent] = []
        self._by_kind: dict[EventKind, list[TelemetryEvent]] = {}

    def emit(self, event: TelemetryEvent) -> None:
        """Record an event."""
        self.events.append(event)
        self._by_kind.setdefault(event.kind, []).append(event)

    # -- queries -----------------------------------------------------------

    def of_kind(self, kind: EventKind) -> list[TelemetryEvent]:
        """All events of one kind, in emission order.

        Served from a per-kind index maintained by :meth:`emit`, so
        repeated queries over long fleet logs are O(matches), not O(n)
        rescans of every event.
        """
        return list(self._by_kind.get(kind, ()))

    def count(self, kind: EventKind) -> int:
        """Number of events of one kind."""
        return len(self._by_kind.get(kind, ()))

    def last(self, kind: EventKind) -> TelemetryEvent | None:
        """Most recent event of one kind, if any."""
        events = self._by_kind.get(kind)
        return events[-1] if events else None
