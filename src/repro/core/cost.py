"""The memory cost model (Section IV-B, Equation 1).

    cost = SDown * (MB_fast * Cost_fast + MB_slow * Cost_slow)

``SDown`` is the slowdown relative to running entirely in the fast tier;
the parenthesis is the capacity-weighted price.  The *normalized* form
divides by the all-fast cost, so 1.0 means "same bill as today's
DRAM-only plans" and ``1/cost_ratio`` (0.4 at the paper's 2.5 ratio) is
the optimum: everything in the slow tier at zero slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import AnalysisError, ConfigError
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem

__all__ = [
    "normalized_cost",
    "normalized_cost_tiers",
    "CostPoint",
]


def normalized_cost(
    slowdown: float,
    fast_fraction: float,
    memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
) -> float:
    """Equation 1 normalized to the all-fast (DRAM-only) configuration.

    ``fast_fraction`` is the share of guest memory kept in the fast tier.
    A value below 1.0 means the configuration is cheaper than DRAM-only;
    the floor is ``memory.optimal_normalized_cost``.
    """
    if slowdown < 1.0:
        raise AnalysisError(f"slowdown {slowdown} below 1.0 is not meaningful")
    if not 0.0 <= fast_fraction <= 1.0:
        raise AnalysisError("fast_fraction must lie in [0, 1]")
    if memory.fast.cost_per_mb == 0:
        raise ConfigError(
            f"cannot normalize cost: fast tier {memory.fast.name!r} is free "
            "(cost_per_mb=0)"
        )
    slow_fraction = 1.0 - fast_fraction
    # Zero-price limit taken explicitly: a free slow tier contributes
    # nothing to the bill instead of dividing by a zero ratio.
    if memory.slow.cost_per_mb == 0:
        return slowdown * fast_fraction
    return slowdown * (fast_fraction + slow_fraction / memory.cost_ratio)


def normalized_cost_tiers(
    slowdown: float,
    fractions: Sequence[float],
    memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
) -> float:
    """Equation 1 over the memory system's full tier chain.

    ``fractions`` gives the share of guest memory on each tier in *chain*
    order (fast, middle tiers, slow; see
    :attr:`~repro.memsim.tiers.MemorySystem.chain`), normalized to the
    all-fast configuration.  Free tiers contribute nothing (the explicit
    zero-price limit); on a plain two-tier system with fractions
    ``(f, 1 - f)`` this equals :func:`normalized_cost` exactly.
    """
    if slowdown < 1.0:
        raise AnalysisError(f"slowdown {slowdown} below 1.0 is not meaningful")
    chain = memory.chain
    fractions = [float(f) for f in fractions]
    if len(fractions) != len(chain):
        raise AnalysisError(
            f"need one fraction per tier ({len(chain)}), got {len(fractions)}"
        )
    if any(f < -1e-12 for f in fractions):
        raise AnalysisError("fractions must be non-negative")
    if abs(sum(fractions) - 1.0) > 1e-6:
        raise AnalysisError("fractions must sum to 1")
    fast_price = memory.fast.cost_per_mb
    if fast_price == 0:
        raise ConfigError(
            f"cannot normalize cost: fast tier {memory.fast.name!r} is free "
            "(cost_per_mb=0)"
        )
    # An explicit left fold: from Python 3.12 ``sum()`` of floats is
    # compensated, which would round the price differently per version.
    price = 0.0
    for f, spec in zip(fractions, chain):
        price += f * (spec.cost_per_mb / fast_price)
    return slowdown * price


@dataclass(frozen=True)
class CostPoint:
    """One (slowdown, placement) point on a cost curve (Figures 5/6)."""

    slowdown: float
    slow_fraction: float
    cost: float

    @classmethod
    def of(
        cls,
        slowdown: float,
        slow_fraction: float,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
    ) -> "CostPoint":
        """Build a point, computing the normalized cost."""
        return cls(
            slowdown=slowdown,
            slow_fraction=slow_fraction,
            cost=normalized_cost(slowdown, 1.0 - slow_fraction, memory),
        )
