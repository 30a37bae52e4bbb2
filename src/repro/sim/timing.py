"""Shared setup/execution timing bookkeeping.

``baselines.base.SystemOutcome`` and the measured tier-placement search
(:func:`repro.core.tiering.search_tier_placement`) both normalise times
against an all-fast baseline through this one helper, so a timing
convention changes in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["InvocationTiming", "normalized_slowdown"]


@dataclass(frozen=True)
class InvocationTiming:
    """Setup + execution phases of one invocation, in simulated seconds."""

    setup_s: float
    exec_s: float

    def __post_init__(self) -> None:
        if self.setup_s < 0 or self.exec_s < 0:
            raise ConfigError("phase times must be non-negative")

    @property
    def total_s(self) -> float:
        """End-to-end time (the Figure 8 quantity)."""
        return self.setup_s + self.exec_s


def normalized_slowdown(time_s: float, baseline_s: float) -> float:
    """``time / baseline``, floored at 1.0 (a placement cannot beat its
    own all-fast baseline; sub-1.0 ratios are measurement jitter)."""
    if baseline_s <= 0:
        raise ConfigError("baseline duration must be positive")
    return max(1.0, time_s / baseline_s)
