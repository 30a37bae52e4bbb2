"""Snapshot re-generation trigger (Section V-E, Equations 2-4).

A tiered snapshot built during profiling can age: if the function starts
receiving invocations longer than anything seen while profiling, the
placement no longer matches reality.  TOSS re-profiles when

    #iterations * bound  >=  profiling_overhead - accelerating_factor   (4)

where the *profiling overhead* (2) is what a re-profiling cycle costs —
the DAMON-enabled invocations plus the slowdown paid during bin
profiling — and the *accelerating factor* (3) accumulates evidence from
invocations that ran longer than the longest invocation seen during
profiling (LRI), weighted by the full-slow-tier slowdown.
"""

from __future__ import annotations

from .. import config
from ..domains import RealDomain, check_value
from ..errors import AnalysisError

__all__ = ["ReprofilePolicy"]

REPROFILE_BOUND = RealDomain(0.0)
"""Equation 4's per-iteration overhead bound: a finite real > 0."""


class ReprofilePolicy:
    """Tracks Equations 2-4 for one function's tiered snapshot."""

    def __init__(self, *, bound: float = config.REPROFILE_OVERHEAD_BOUND) -> None:
        check_value(REPROFILE_BOUND, bound, "re-profiling bound", AnalysisError)
        self.bound = bound
        self.profiling_overhead = 0.0
        self.accelerating_factor = 0.0
        self.iterations = 0
        self.latency_lri: float | None = None
        self.slowdown_slow = 0.0

    # -- calibration after a profiling cycle ---------------------------------

    def record_profiling(
        self,
        n_damon_invocations: int,
        bin_slowdowns: list[float] | tuple[float, ...],
        *,
        latency_lri: float,
        slowdown_full_slow: float,
    ) -> None:
        """Arm the policy after a profiling + analysis cycle.

        ``bin_slowdowns`` are the per-bin incremental slowdowns from bin
        profiling; Equation 2 charges ``1 + slowdown`` per bin run.
        ``latency_lri`` is the longest invocation seen while profiling and
        ``slowdown_full_slow`` the measured slowdown with every bin
        offloaded (used by Equation 3's weight).
        """
        if n_damon_invocations < 0:
            raise AnalysisError("invocation count must be non-negative")
        if latency_lri <= 0:
            raise AnalysisError("LRI latency must be positive")
        if slowdown_full_slow < 0:
            raise AnalysisError("slowdown must be non-negative")
        self.profiling_overhead = n_damon_invocations + sum(
            1.0 + s for s in bin_slowdowns
        )
        self.latency_lri = latency_lri
        self.slowdown_slow = slowdown_full_slow
        self.accelerating_factor = 0.0
        self.iterations = 0

    # -- per-invocation bookkeeping -----------------------------------------

    def observe(self, latency_s: float) -> None:
        """Record one post-tiering invocation (Equation 3's sum)."""
        if latency_s < 0:
            raise AnalysisError("latency must be non-negative")
        if self.latency_lri is None:
            raise AnalysisError("policy not armed: record_profiling() first")
        self.iterations += 1
        if latency_s > self.latency_lri:
            self.accelerating_factor += (latency_s / self.latency_lri) * (
                1.0 + self.slowdown_slow
            )

    @property
    def should_reprofile(self) -> bool:
        """Equation 4: re-profile when the amortised bound is met."""
        if self.latency_lri is None:
            return False
        return (
            self.iterations * self.bound
            >= self.profiling_overhead - self.accelerating_factor
        )
