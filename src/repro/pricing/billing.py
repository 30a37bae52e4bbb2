"""Tiered billing (Section III-D).

When part of a function's memory lives in the slow tier, the platform's
cost of ownership drops and it can offer a dynamically reduced plan.  The
reduction follows Equation 1: the per-MB rate becomes the capacity-weighted
blend of the tier prices, and the slowdown lengthens the billable
duration.  In the worst case (all DRAM, no slowdown) the bill equals the
current single-tier plan — users never pay more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigError
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from .vendors import AWS_LAMBDA, VendorPlan

__all__ = ["TieredBill", "bill_invocation"]


@dataclass(frozen=True)
class TieredBill:
    """Single-tier vs tiered bill for one invocation."""

    dram_cost: float
    tiered_cost: float
    slow_fraction: float
    slowdown: float

    @property
    def savings_fraction(self) -> float:
        """Relative saving versus the DRAM-only plan (>= 0 by design)."""
        if self.dram_cost == 0:
            return 0.0
        return 1.0 - self.tiered_cost / self.dram_cost


def bill_invocation(
    *,
    guest_mb: float,
    duration_s: float,
    slow_fraction: float,
    slowdown: float = 1.0,
    memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
    tier_fractions: Sequence[float] | None = None,
) -> TieredBill:
    """Bill one invocation under both plans, on Lambda-style pricing.

    ``duration_s`` is the invocation as observed (already slowed down);
    the DRAM reference duration is recovered by dividing the slowdown out,
    so the comparison matches Equation 1's structure.

    ``tier_fractions`` prices an N-tier placement: per-tier memory shares
    in chain order (fast, middle tiers, slow; must sum to 1).  When given
    it supersedes ``slow_fraction`` in the blend; the reported
    ``slow_fraction`` then means "share not on the fast tier".
    """
    if not 0.0 <= slow_fraction <= 1.0:
        raise ConfigError("slow_fraction must lie in [0, 1]")
    if slowdown < 1.0:
        raise ConfigError("slowdown must be >= 1")
    plan = AWS_LAMBDA
    dram_duration = duration_s / slowdown
    dram_cost = plan.invocation_cost(guest_mb, dram_duration)

    # Blended per-MB price, normalised so all-fast costs exactly the
    # vendor rate (users never pay more than today's plans).  A free
    # tier's share costs nothing (explicit zero-price limit).
    if tier_fractions is not None:
        chain = memory.chain
        if len(tier_fractions) != len(chain):
            raise ConfigError(
                f"need one fraction per tier ({len(chain)}), got "
                f"{len(tier_fractions)}"
            )
        if not all(0.0 <= f <= 1.0 for f in tier_fractions):
            raise ConfigError("tier_fractions must each lie in [0, 1]")
        if abs(sum(tier_fractions) - 1.0) > 1e-6:
            raise ConfigError("tier_fractions must sum to 1")
        # An explicit left fold, as in ``normalized_cost_tiers``: from
        # Python 3.12 ``sum()`` of floats is compensated, which would
        # round the blend differently per version.
        blend = 0.0
        for f, tid in zip(tier_fractions, memory.tier_ids):
            blend += float(f) * memory.price_relative(tid)
        slow_fraction = 1.0 - float(tier_fractions[0])
    else:
        fast_fraction = 1.0 - slow_fraction
        if memory.slow.cost_per_mb == 0:
            blend = fast_fraction
        else:
            blend = fast_fraction + slow_fraction / memory.cost_ratio
    tiered_rate = plan.rate_per_mb_ms * blend
    tiered_plan = VendorPlan(
        name=f"{plan.name}-tiered",
        rate_per_mb_ms=tiered_rate,
        billing_quantum_ms=plan.billing_quantum_ms,
        per_request=plan.per_request,
    )
    tiered_cost = tiered_plan.invocation_cost(guest_mb, duration_s)
    return TieredBill(
        dram_cost=dram_cost,
        tiered_cost=tiered_cost,
        slow_fraction=slow_fraction,
        slowdown=slowdown,
    )
