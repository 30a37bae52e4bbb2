"""Section VI-C3: snapshot-based memory cost variance.

Two comparisons the paper reports without a figure:

* **Input IV vs all inputs** — how much the minimum cost differs between
  the snapshot profiled only with input IV and the one profiled with all
  inputs, evaluated on every execution input.  Paper: 7.2 % average
  variance, dropping to 2.4 % once short-running invocations and pagerank
  are excluded.
* **Input IV vs individual placement** — how close the input-IV bin
  placement comes to the per-input optimal placement.  Paper: 6.1 %
  average difference, 3.3 % excluding the short-running outliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cost import normalized_cost
from ..functions import INPUT_LABELS, get_function
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, Tier
from ..report import Table
from ..vm.microvm import MicroVM
from .common import ALL_INPUTS, INPUT_IV_ONLY, suite_names, toss_cached

__all__ = ["VarianceResult", "run"]

SHORT_RUNNING_S = 0.010
"""Invocations under 10 ms are the volatile outliers the paper excludes."""


def _placement_cost(func, placement, trace, memory) -> float:
    """Measured normalised cost of a placement for one trace."""
    all_fast = np.full(func.n_pages, int(Tier.FAST), dtype=np.uint8)
    dram_t = MicroVM(func.n_pages, memory=memory, placement=all_fast)\
        .execute(trace).time_s
    t = MicroVM(func.n_pages, memory=memory, placement=placement)\
        .execute(trace).time_s
    sd = max(1.0, t / dram_t)
    slow_frac = float(np.count_nonzero(placement == int(Tier.SLOW)) / func.n_pages)
    return normalized_cost(sd, 1.0 - slow_frac, memory)


@dataclass(frozen=True)
class VarianceResult:
    """Cost variances between snapshot strategies."""

    snapshot_variance: dict[tuple[str, str], float]
    placement_variance: dict[tuple[str, str], float]
    short_running: set[tuple[str, str]]
    table: Table

    def _mean(self, data: dict, exclude_outliers: bool) -> float:
        vals = [
            v
            for k, v in data.items()
            if not (
                exclude_outliers
                and (k in self.short_running or k[0] == "pagerank")
            )
        ]
        return float(np.mean(vals)) if vals else 0.0

    def mean_snapshot_variance(self, *, exclude_outliers: bool = False) -> float:
        """Average |cost(IV snapshot) - cost(all snapshot)| / cost (paper:
        7.2 % -> 2.4 % excluding outliers)."""
        return self._mean(self.snapshot_variance, exclude_outliers)

    def mean_placement_variance(self, *, exclude_outliers: bool = False) -> float:
        """Average cost gap of the IV placement vs per-input placement
        (paper: 6.1 % -> 3.3 % excluding outliers)."""
        return self._mean(self.placement_variance, exclude_outliers)


def run(
    *,
    function_names: list[str] | None = None,
    seed: int = 900,
) -> VarianceResult:
    """Compare snapshot bases and placements across execution inputs."""
    names = function_names or suite_names()
    memory = DEFAULT_MEMORY_SYSTEM
    table = Table(
        "Section VI-C3: cost variance between snapshot strategies (%)",
        ["function", "input", "IV vs all snapshot", "IV vs per-input placement"],
        precision=1,
    )
    snapshot_variance: dict[tuple[str, str], float] = {}
    placement_variance: dict[tuple[str, str], float] = {}
    short_running: set[tuple[str, str]] = set()
    for name in names:
        func = get_function(name)
        sys_iv = toss_cached(name, INPUT_IV_ONLY)
        sys_all = toss_cached(name, ALL_INPUTS)
        for idx, label in enumerate(INPUT_LABELS):
            trace = func.trace(idx, seed)
            if func.input_spec(idx).t_dram_s < SHORT_RUNNING_S:
                short_running.add((name, label))
            cost_iv = _placement_cost(
                func, sys_iv.analysis.placement, trace, memory
            )
            cost_all = _placement_cost(
                func, sys_all.analysis.placement, trace, memory
            )
            var = abs(cost_iv - cost_all) / cost_all * 100.0
            snapshot_variance[(name, label)] = var

            # Per-input optimal placement: re-run the analyzer with this
            # input as the bin-profiling trace on the all-inputs pattern.
            # Its cost is measured on this trace already, bit for bit as
            # ``_placement_cost`` would measure it.
            cost_opt = sys_all.controller.analyzer.analyze(
                sys_all.controller.pattern, trace
            ).cost
            gap = max(0.0, cost_iv - cost_opt) / cost_opt * 100.0
            placement_variance[(name, label)] = gap
            table.add_row(name, label, var, gap)
    return VarianceResult(
        snapshot_variance=snapshot_variance,
        placement_variance=placement_variance,
        short_running=short_running,
        table=table,
    )
