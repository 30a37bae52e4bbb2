"""Profiling analysis (Section V-C): from unified pattern to placement.

The analyzer turns the converged unified access pattern into a page
placement in four moves:

1. move the zero-accessed regions to the slow tier;
2. pack the remaining regions into N mostly-equally-accessed bins with the
   constant-bin-number greedy heuristic;
3. *bin profiling*: starting from all bins in DRAM, progressively offload
   bins (coldest first) and measure the slowdown of each configuration by
   executing the profiling trace — the biggest input encountered during
   the profiling phase — under that placement;
4. compute each bin's Equation-1 memory cost and offload every bin whose
   cost is below 1; under a client slowdown threshold, offload in
   ascending-slowdown order until the threshold binds.

Because decisions are made from DAMON *observations* while slowdowns are
*measured* on the real access pattern, pages that merely look cold still
charge their true cost — which is how the paper's pagerank ends up with
only 49 % offloaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import config
from ..binpack import to_constant_bin_number
from ..errors import AnalysisError
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem, Tier
from ..profiling.unified import UnifiedAccessPattern
from ..regions import Region, split_region
from ..trace.events import InvocationTrace
from ..vm.microvm import MicroVM
from .cost import CostPoint, normalized_cost

__all__ = ["BinProfile", "AnalysisResult", "ProfilingAnalyzer"]


@dataclass(frozen=True)
class BinProfile:
    """One equal-access bin and its measured behaviour."""

    index: int
    regions: tuple[Region, ...]
    n_pages: int
    weight: float
    incremental_slowdown: float
    solo_cost: float
    selected: bool

    @property
    def page_fraction(self) -> float:
        """Bin size as a fraction of... resolved by the analyzer (set via
        AnalysisResult; kept simple here as absolute pages)."""
        return float(self.n_pages)


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of profiling analysis for one function."""

    n_pages: int
    placement: np.ndarray
    zero_pages: int
    base_slowdown: float
    bins: tuple[BinProfile, ...]
    expected_slowdown: float
    slow_fraction: float
    cost: float
    curve: tuple[CostPoint, ...]
    dram_time_s: float
    final_time_s: float

    @property
    def fast_fraction(self) -> float:
        """Fraction of guest memory kept in DRAM."""
        return 1.0 - self.slow_fraction

    @property
    def selected_bins(self) -> tuple[BinProfile, ...]:
        """Bins placed in the slow tier."""
        return tuple(b for b in self.bins if b.selected)


def check_slowdown_threshold(threshold: float | None) -> None:
    """Reject a negative or NaN slowdown budget (``None`` is unbounded)."""
    if threshold is not None and not threshold >= 0:
        raise AnalysisError(
            f"slowdown threshold must be non-negative, got {threshold}"
        )


class ProfilingAnalyzer:
    """Runs Section V-C's analysis for one function's unified pattern."""

    def __init__(
        self,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        *,
        n_bins: int = config.NUM_BINS,
        merge_tolerance: float = float(config.ACCESS_MERGE_THRESHOLD),
        min_region_pages: int = config.DAMON_MIN_REGION_BYTES // config.PAGE_SIZE,
        pack_mode: str = "quantile",
    ) -> None:
        if n_bins < 1:
            raise AnalysisError("need at least one bin")
        if pack_mode not in ("quantile", "greedy"):
            raise AnalysisError("pack_mode must be 'quantile' or 'greedy'")
        self.memory = memory
        self.n_bins = n_bins
        self.merge_tolerance = merge_tolerance
        self.min_region_pages = min_region_pages
        self.pack_mode = pack_mode

    # -- binning ---------------------------------------------------------------

    def _pack_bins(self, live_regions: list[Region]) -> list[list[Region]]:
        """Split the live regions into mostly-equally-accessed bins.

        ``quantile`` (default): sort regions by access density and walk the
        order, cutting bins at equal cumulative access shares and splitting
        a region where a boundary falls inside it.  Bins come out
        density-homogeneous with variable page sizes — "by splitting memory
        into regions based on the total bin access frequency, we end up
        with variable bin sizes" (Section V-C).

        ``greedy``: the raw constant-bin-number heuristic of the cited
        ``binpacking`` package, without splitting.  Balances weights but
        mixes densities; kept for the ablation benchmark.
        """
        if self.pack_mode == "greedy":
            packed = to_constant_bin_number(
                live_regions, self.n_bins, key=lambda r: r.value * r.n_pages
            )
            return [b for b in packed if b]

        ordered = sorted(live_regions, key=lambda r: r.value)
        total = sum(r.value * r.n_pages for r in ordered)
        if total <= 0:
            return []
        target = total / self.n_bins
        bins: list[list[Region]] = []
        current: list[Region] = []
        acc = 0.0
        for region in ordered:
            while (
                len(bins) < self.n_bins - 1
                and acc + region.value * region.n_pages >= target
            ):
                need = target - acc
                pages_needed = (
                    int(round(need / region.value)) if region.value > 0 else 0
                )
                if pages_needed >= region.n_pages:
                    break  # region fits whole; close the bin after adding it
                if pages_needed >= 1:
                    left, region = split_region(
                        region, region.start_page + pages_needed
                    )
                    current.append(left)
                bins.append(current)
                current = []
                acc = 0.0
            current.append(region)
            acc += region.value * region.n_pages
            if len(bins) < self.n_bins - 1 and acc >= target:
                bins.append(current)
                current = []
                acc = 0.0
        if current:
            bins.append(current)
        return [b for b in bins if b]

    # -- measurement ------------------------------------------------------------

    def _measure(self, placement: np.ndarray, trace: InvocationTrace) -> float:
        """Execution time of the profiling trace under a placement.

        Profiling runs on live (resident) memory: pure placement effect,
        no restore faults — those belong to the restore path, not to the
        cost of where pages live.
        """
        vm = MicroVM(trace.n_pages, memory=self.memory, placement=placement)
        return vm.execute(trace).time_s

    # -- analysis --------------------------------------------------------------------

    def analyze(
        self,
        pattern: UnifiedAccessPattern,
        profile_trace: InvocationTrace,
        *,
        slowdown_threshold: float | None = None,
    ) -> AnalysisResult:
        """Produce the minimum-cost placement (optionally threshold-bound)."""
        if pattern.n_pages != profile_trace.n_pages:
            raise AnalysisError("pattern and profiling trace cover different guests")
        check_slowdown_threshold(slowdown_threshold)
        n_pages = pattern.n_pages
        regions = pattern.regions(
            merge_tolerance=self.merge_tolerance,
            min_region_pages=self.min_region_pages,
        )
        zero_regions = [r for r in regions if r.value <= 0]
        live_regions = [r for r in regions if r.value > 0]

        # Step 1: zero-accessed regions go to the slow tier.
        base_placement = np.full(n_pages, int(Tier.FAST), dtype=np.uint8)
        for region in zero_regions:
            base_placement[region.start_page : region.end_page] = int(Tier.SLOW)
        zero_pages = int(np.count_nonzero(base_placement == int(Tier.SLOW)))

        dram_time = self._measure(
            np.full(n_pages, int(Tier.FAST), dtype=np.uint8), profile_trace
        )
        if dram_time <= 0:
            raise AnalysisError("profiling trace has zero duration")
        base_time = self._measure(base_placement, profile_trace)
        base_slowdown = max(1.0, base_time / dram_time)

        # Step 2: pack live regions into mostly-equally-accessed bins.
        packed = self._pack_bins(live_regions)

        # Step 3: bin profiling — offload bins coldest-first, measuring the
        # slowdown of each cumulative configuration.
        order = sorted(
            range(len(packed)),
            key=lambda i: sum(r.value * r.n_pages for r in packed[i]),
        )
        placement = base_placement.copy()
        prev_time = base_time
        profiles: list[BinProfile] = []
        for bin_idx in order:
            regions_b = packed[bin_idx]
            pages_b = sum(r.n_pages for r in regions_b)
            weight_b = sum(r.value * r.n_pages for r in regions_b)
            for region in regions_b:
                placement[region.start_page : region.end_page] = int(Tier.SLOW)
            time_b = self._measure(placement, profile_trace)
            delta_sd = max(0.0, (time_b - prev_time) / dram_time)
            prev_time = time_b
            f_b = pages_b / n_pages
            solo_cost = normalized_cost(1.0 + delta_sd, 1.0 - f_b, self.memory)
            profiles.append(
                BinProfile(
                    index=bin_idx,
                    regions=tuple(regions_b),
                    n_pages=pages_b,
                    weight=weight_b,
                    incremental_slowdown=delta_sd,
                    solo_cost=solo_cost,
                    selected=False,
                )
            )

        # Step 4: select bins.  Default: every bin whose solo cost is < 1.
        # Under a slowdown threshold: cheapest-slowdown first, while the
        # cumulative (base + increments) slowdown stays under the bound.
        candidates = [p for p in profiles if p.solo_cost < 1.0]
        if slowdown_threshold is not None:
            budget = slowdown_threshold - (base_slowdown - 1.0)
            chosen: list[BinProfile] = []
            for p in sorted(candidates, key=lambda p: p.incremental_slowdown):
                if p.incremental_slowdown <= budget:
                    budget -= p.incremental_slowdown
                    chosen.append(p)
            candidates = chosen
        selected_ids = {id(p) for p in candidates}
        profiles = [
            BinProfile(
                index=p.index,
                regions=p.regions,
                n_pages=p.n_pages,
                weight=p.weight,
                incremental_slowdown=p.incremental_slowdown,
                solo_cost=p.solo_cost,
                selected=id(p) in selected_ids,
            )
            for p in profiles
        ]

        final_placement = base_placement.copy()
        for p in profiles:
            if p.selected:
                for region in p.regions:
                    final_placement[region.start_page : region.end_page] = int(
                        Tier.SLOW
                    )
        final_time = self._measure(final_placement, profile_trace)
        expected_slowdown = max(1.0, final_time / dram_time)
        slow_fraction = float(
            np.count_nonzero(final_placement == int(Tier.SLOW)) / n_pages
        )
        cost = normalized_cost(expected_slowdown, 1.0 - slow_fraction, self.memory)

        # Figure 6 curve: cumulative offload with bins sorted by their
        # individual memory-cost efficiency.  Slowdowns compose additively
        # in the placement-only engine, so increments can be reused.
        curve: list[CostPoint] = []
        sd = base_slowdown
        slow_pages = zero_pages
        for p in sorted(profiles, key=lambda p: p.solo_cost):
            sd += p.incremental_slowdown
            slow_pages += p.n_pages
            curve.append(CostPoint.of(sd, slow_pages / n_pages, self.memory))

        return AnalysisResult(
            n_pages=n_pages,
            placement=final_placement,
            zero_pages=zero_pages,
            base_slowdown=base_slowdown,
            bins=tuple(profiles),
            expected_slowdown=expected_slowdown,
            slow_fraction=slow_fraction,
            cost=cost,
            curve=tuple(curve),
            dram_time_s=dram_time,
            final_time_s=final_time,
        )
