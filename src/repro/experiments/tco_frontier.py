"""TCO-vs-slowdown frontier with software compressed tiers.

Sweeps slowdown budgets over a family of memory-system configurations —
the paper's two-tier DRAM/PMEM platform plus software-defined compressed
tiers (:mod:`repro.memsim.compressed`) — and reports the minimum
normalised memory cost each configuration reaches within each budget.
The all-DRAM configuration anchors the frontier at cost 1.0 / slowdown
1.0; every other point trades slowdown for TCO.

:func:`repro.core.tiering.search_tier_placement` finds the exact minimum
at each budget, so a chain whose tiers include another's never reports a
higher cost than it at the same budget.  ``dram+zstd`` does not include
the PMEM tier of ``dram+pmem``, so for it the same ordering is a checked
claim, not a guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memsim.compressed import (
    LZ4_POINT,
    ZSTD_POINT,
    compressed_memory_system,
)
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from ..multitier.analysis import MultiTierAnalyzer
from ..report import Table
from .common import ALL_INPUTS, toss_cached

__all__ = ["FrontierPoint", "TcoFrontierResult", "default_configs", "run"]

TRACE_SEED = 4242
"""Fixed evaluation-trace seed: the frontier is a deterministic artifact
(CI diffs it against a golden fixture)."""

TWO_TIER_NAME = "dram+pmem"
"""Config name of the paper's two-tier platform inside the sweep."""


def default_configs() -> tuple[tuple[str, MemorySystem], ...]:
    """The swept configurations, two-tier platform first.

    * ``dram+pmem`` — the paper's hardware platform (the comparison
      baseline within the sweep);
    * ``dram+lz4+pmem`` — a fast low-ratio compressed tier between them;
    * ``dram+zstd`` — the compressed pool replaces the capacity tier;
    * ``dram+lz4+zstd`` — two operating points, no hardware slow tier.
    """
    return (
        (TWO_TIER_NAME, DEFAULT_MEMORY_SYSTEM),
        ("dram+lz4+pmem", compressed_memory_system((LZ4_POINT,))),
        ("dram+zstd", compressed_memory_system((ZSTD_POINT,), slow=None)),
        (
            "dram+lz4+zstd",
            compressed_memory_system((LZ4_POINT, ZSTD_POINT), slow=None),
        ),
    )


@dataclass(frozen=True)
class FrontierPoint:
    """One (configuration, slowdown budget) point of the frontier."""

    config: str
    threshold: float
    cost: float
    """Mean normalised memory cost across the swept functions."""
    slowdown: float
    """Mean achieved slowdown (<= 1 + threshold by construction)."""
    costs: dict[str, float]
    """Per-function normalised cost behind the mean."""


@dataclass(frozen=True)
class TcoFrontierResult:
    """The TCO-vs-slowdown frontier over all configurations."""

    points: tuple[FrontierPoint, ...]
    dram_only_cost: float
    """The all-DRAM anchor (normalises to exactly 1.0)."""
    table: Table

    def best_cost(self, config: str) -> float:
        """Cheapest point one configuration reaches across budgets."""
        costs = [p.cost for p in self.points if p.config == config]
        if not costs:
            raise KeyError(f"no frontier points for config {config!r}")
        return min(costs)

    @property
    def best_two_tier_cost(self) -> float:
        """Cheapest two-tier (DRAM/PMEM) point."""
        return self.best_cost(TWO_TIER_NAME)

    @property
    def best_compressed_cost(self) -> float:
        """Cheapest point among the compressed-tier configurations."""
        costs = [
            p.cost for p in self.points if p.config != TWO_TIER_NAME
        ]
        return min(costs)

    @property
    def compressed_beats_two_tier(self) -> bool:
        """The headline claim: software tiers push the frontier down."""
        return self.best_compressed_cost < self.best_two_tier_cost


def run(
    *,
    function_names: list[str] | None = None,
    slowdown_thresholds: tuple[float, ...] = (0.05, 0.15, 0.30),
    profiling_inputs: tuple[int, ...] = ALL_INPUTS,
    configs: tuple[tuple[str, MemorySystem], ...] | None = None,
) -> TcoFrontierResult:
    """Sweep the TCO-vs-slowdown frontier.

    For every function the converged unified access pattern and a fixed
    evaluation trace drive one
    :func:`~repro.core.tiering.search_tier_placement` per (configuration,
    budget), called as :meth:`MultiTierAnalyzer.analyze`.
    """
    names = function_names or ["float_operation", "json_load_dump", "pyaes"]
    swept = configs if configs is not None else default_configs()
    table = Table(
        "TCO-vs-slowdown frontier (normalised memory cost; all-DRAM = 1.0)",
        ["config", "budget", "cost", "slowdown"],
    )
    table.add_row("dram-only", 0.0, 1.0, 1.0)

    prepared = []
    for name in names:
        system = toss_cached(name, profiling_inputs)
        controller = system.controller
        trace = controller.function.trace(
            controller.function.n_inputs - 1, TRACE_SEED
        )
        prepared.append((name, controller.pattern, trace))

    points: list[FrontierPoint] = []
    for threshold in slowdown_thresholds:
        for cfg_name, memory in swept:
            analyzer = MultiTierAnalyzer(memory)
            costs: dict[str, float] = {}
            slowdowns: list[float] = []
            for name, pattern, trace in prepared:
                result = analyzer.analyze(
                    pattern, trace, slowdown_threshold=threshold
                )
                costs[name] = result.cost
                slowdowns.append(result.slowdown)
            point = FrontierPoint(
                config=cfg_name,
                threshold=threshold,
                cost=float(np.mean(list(costs.values()))),
                slowdown=float(np.mean(slowdowns)),
                costs=costs,
            )
            points.append(point)
            table.add_row(cfg_name, threshold, point.cost, point.slowdown)

    return TcoFrontierResult(
        points=tuple(points), dram_only_cost=1.0, table=table
    )
