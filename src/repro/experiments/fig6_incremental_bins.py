"""Figure 6: slowdown-to-memory-cost per bin, worst five functions.

Takes the analysis bins of each function's tiered snapshot, sorts them by
their individual memory-cost efficiency, and — for every Table I input —
measures the slowdown and Equation-1 cost of each cumulative offload step
(leftmost point = zero-accessed regions + first bin, and so on).

Paper observations reproduced: larger inputs accumulate more slowdown
(confirming the use of the longest request for bin profiling), and cost
rises with input size, so the largest input gives a conservative cost
upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.analysis import BinTable
from ..core.cost import normalized_cost
from ..functions import INPUT_LABELS, get_function
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, Tier
from ..report import SeriesSet
from .common import ALL_INPUTS, toss_cached

__all__ = ["Fig6Result", "DEFAULT_WORST_FIVE", "run"]

DEFAULT_WORST_FIVE = (
    "pagerank",
    "matmul",
    "linpack",
    "lr_serving",
    "image_processing",
)
"""The five functions with the worst Figure 2 slowdowns."""


@dataclass(frozen=True)
class Fig6Result:
    """Per-function, per-input cumulative (slowdown, cost) curves."""

    curves: dict[tuple[str, str], tuple[tuple[float, float], ...]]
    figures: dict[str, SeriesSet]

    def final_cost(self, function: str, label: str) -> float:
        """Cost with every bin offloaded for one input."""
        return self.curves[(function, label)][-1][1]

    def slowdown_monotone_in_input(self, function: str) -> bool:
        """Whether the largest input accumulates the most slowdown."""
        finals = [
            self.curves[(function, label)][-1][0] for label in INPUT_LABELS
        ]
        return finals[-1] >= max(finals) - 1e-9


def run(
    *,
    function_names: tuple[str, ...] = DEFAULT_WORST_FIVE,
    profiling_inputs: tuple[int, ...] = ALL_INPUTS,
    seed: int = 777,
) -> Fig6Result:
    """Measure the incremental offload curves."""
    memory = DEFAULT_MEMORY_SYSTEM
    curves: dict[tuple[str, str], tuple[tuple[float, float], ...]] = {}
    figures: dict[str, SeriesSet] = {}
    for name in function_names:
        func = get_function(name)
        system = toss_cached(name, profiling_inputs)
        controller = system.controller
        bins = sorted(system.analysis.bins, key=lambda b: b.solo_cost)

        fig = SeriesSet(
            f"Figure 6 ({name}): slowdown vs memory cost per offloaded bin",
            x_label="slowdown",
            y_label="normalized memory cost",
        )
        for idx, label in enumerate(INPUT_LABELS):
            # The analysis' bins (the controller's pattern and bin count
            # pack them again), timed on this input's trace: all-fast,
            # then the zero-accessed regions plus each bin, cumulatively.
            table = BinTable(
                controller.pattern, func.trace(idx, seed), n_bins=controller.cfg.n_bins
            )
            rows = np.tile(table.base, (len(bins) + 1, 1))
            rows[0] = int(Tier.FAST)
            for step, b in enumerate(bins, start=1):
                rows[step:, b.index] = int(Tier.SLOW)
            dram_t, *times = [r.time_s for r in table.score(memory, rows)]
            points: list[tuple[float, float]] = []
            for row, t in zip(rows[1:], times):
                sd = max(1.0, t / dram_t)
                slow_frac = float(table.fractions(row, memory)[-1])
                points.append(
                    (sd, normalized_cost(sd, 1.0 - slow_frac, memory))
                )
            curves[(name, label)] = tuple(points)
            fig.add(
                f"input {label}",
                [p[0] for p in points],
                [p[1] for p in points],
            )
        figures[name] = fig
    return Fig6Result(curves=curves, figures=figures)
