"""Profiling analysis (Section V-C): from unified pattern to placement.

The analyzer turns the converged unified access pattern into a page
placement in four moves:

1. move the zero-accessed regions to the slow tier;
2. pack the remaining regions into N mostly-equally-accessed bins with the
   constant-bin-number greedy heuristic (:func:`pack_bins`);
3. *bin profiling*: starting from all bins in DRAM, progressively offload
   bins (coldest first) and measure the slowdown of each configuration by
   executing the profiling trace — the biggest input encountered during
   the profiling phase — under that placement;
4. compute each bin's Equation-1 memory cost and offload every bin whose
   cost is below 1; under a client slowdown threshold, offload in
   ascending-slowdown order until the threshold binds.

Steps 1–3 read a :class:`BinTable`, built once per (pattern, trace),
which times placements of the bins with the execute engine's accounting,
bit for bit as executing the trace does; the N-tier search
(:mod:`repro.core.tiering`) times its placements on the same table.

Because decisions are made from DAMON *observations* while slowdowns are
*measured* on the real access pattern, pages that merely look cold still
charge their true cost — which is how the paper's pagerank ends up with
only 49 % offloaded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import config
from ..binpack import to_constant_bin_number
from ..domains import OptionalDomain, RealDomain, check_value
from ..errors import AnalysisError
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem, Tier
from ..profiling.unified import UnifiedAccessPattern
from ..regions import Region, split_region
from ..sim import batchexec
from ..trace.events import InvocationTrace
from ..vm.microvm import ExecutionResult, _observe_execute
from .cost import CostPoint, normalized_cost

__all__ = [
    "AnalysisResult",
    "BinProfile",
    "BinTable",
    "ProfilingAnalyzer",
    "pack_bins",
]


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
    def selected_bins(self) -> tuple[BinProfile, ...]:
        """Bins placed in the slow tier."""
        return tuple(b for b in self.bins if b.selected)


MIN_REGION_PAGES = config.DAMON_MIN_REGION_BYTES // config.PAGE_SIZE
"""DAMON's minimum region size in pages: the pattern's slivers below it
are absorbed into a neighbour before binning."""

SLOWDOWN_THRESHOLD = OptionalDomain(RealDomain(0.0, lo_open=False, hi_open=False))
"""Section V-C's client slowdown budget: ``None`` is unbounded, and so
is ``inf``; otherwise a slowdown of at least 0."""


def check_slowdown_threshold(threshold: float | None) -> None:
    """Reject a negative or NaN slowdown budget (``None`` is unbounded)."""
    check_value(SLOWDOWN_THRESHOLD, threshold, "slowdown threshold", AnalysisError)


def pack_bins(
    live_regions: list[Region], n_bins: int, mode: str = "quantile"
) -> list[list[Region]]:
    """Split the live regions into at most ``n_bins`` mostly-equally-
    accessed bins (step 2).

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
    if n_bins < 1:
        raise AnalysisError("need at least one bin")
    if mode == "greedy":
        packed = to_constant_bin_number(
            live_regions, n_bins, key=lambda r: r.value * r.n_pages
        )
        return [b for b in packed if b]
    if mode != "quantile":
        raise AnalysisError("pack_mode must be 'quantile' or 'greedy'")

    ordered = sorted(live_regions, key=lambda r: r.value)
    total = sum(r.value * r.n_pages for r in ordered)
    if total <= 0:
        return []
    target = total / n_bins
    bins: list[list[Region]] = []
    current: list[Region] = []
    acc = 0.0
    for region in ordered:
        while (
            len(bins) < n_bins - 1
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
        if len(bins) < n_bins - 1 and acc >= target:
            bins.append(current)
            current = []
            acc = 0.0
    if current:
        bins.append(current)
    return [b for b in bins if b]


class BinTable:
    """The bins of one (pattern, profiling trace) pair, timed exactly.

    Holds the pattern's regions, its live regions packed into
    :attr:`bins`, and each page's *key*: its bin, or, for a page no bin
    covers, ``n_bins`` plus its tier id in the base placement (step 1:
    zero-accessed regions on the slow tier, the rest on the fast tier).
    ``tallies[k, e]`` counts key ``k``'s accesses in epoch ``e`` of the
    trace and ``sizes[k]`` its pages.  A placement is a *row* of one tier
    id per key; :attr:`base` is the base placement's.
    """

    def __init__(
        self,
        pattern: UnifiedAccessPattern,
        trace: InvocationTrace,
        *,
        n_bins: int = config.NUM_BINS,
        merge_tolerance: float = float(config.ACCESS_MERGE_THRESHOLD),
        pack_mode: str = "quantile",
    ) -> None:
        if pattern.n_pages != trace.n_pages:
            raise AnalysisError("pattern and profiling trace cover different guests")
        self.trace = trace
        self.n_pages = pattern.n_pages
        self.regions = pattern.regions(
            merge_tolerance=merge_tolerance, min_region_pages=MIN_REGION_PAGES
        )
        self.bins = pack_bins(
            [r for r in self.regions if r.value > 0], n_bins, pack_mode
        )
        n = self.n_bins = len(self.bins)
        self.base = np.array([int(Tier.FAST)] * (n + 1) + [int(Tier.SLOW)])
        self.key = np.full(self.n_pages, n + int(Tier.FAST), dtype=np.intp)
        for region in self.regions:
            if region.value <= 0:
                self.key[region.start_page : region.end_page] = n + int(Tier.SLOW)
        for b, regions_b in enumerate(self.bins):
            for region in regions_b:
                self.key[region.start_page : region.end_page] = b
        self.sizes = np.bincount(self.key, minlength=n + 2)
        self.tallies = np.zeros((n + 2, len(trace.epochs)), dtype=np.int64)
        for e, epoch in enumerate(trace.epochs):
            # Integer counts summed as floats: exact below 2**53.
            self.tallies[:, e] = np.bincount(
                self.key[epoch.pages], weights=epoch.counts, minlength=n + 2
            )

    def rows(self, bin_tiers: np.ndarray) -> np.ndarray:
        """The base placement's row with bin ``b`` on tier id
        ``bin_tiers[..., b]``, one row per leading index."""
        rows = np.tile(self.base, (*bin_tiers.shape[:-1], 1))
        rows[..., : self.n_bins] = bin_tiers
        return rows

    def placement(self, row: np.ndarray) -> np.ndarray:
        """Tier id of every guest page under a row."""
        return np.asarray(row, dtype=np.uint8)[self.key]

    def fractions(self, row: np.ndarray, memory: MemorySystem) -> np.ndarray:
        """Share of guest memory on each tier under a row, chain order."""
        pages = np.bincount(row, weights=self.sizes, minlength=memory.n_tiers)
        return pages[list(memory.tier_ids)] / self.n_pages

    def score(
        self, memory: MemorySystem, rows: np.ndarray
    ) -> list[ExecutionResult]:
        """Execute the trace on a resident VM under each row's placement:
        one :func:`~repro.sim.batchexec.account` call on the rows' tallies
        with zero faults.  The slow spec is resolved once per row, as each
        execution does, so a backpressure hook counts every one (they
        agree: scoring does not advance simulated time)."""
        rows = np.asarray(rows, dtype=np.intp)
        n_tier = np.zeros(
            (memory.n_tiers, len(rows), self.tallies.shape[1]), dtype=np.int64
        )
        for k, tally in enumerate(self.tallies):
            n_tier[rows[:, k], np.arange(len(rows))] += tally
        slow = memory.slow
        for _ in rows:
            slow = memory.spec(Tier.SLOW)
        return batchexec.account(
            (memory.fast, slow, *memory.middle),
            [self.trace] * len(rows),
            n_tier.reshape(memory.n_tiers, -1),
        )


class ProfilingAnalyzer:
    """Runs Section V-C's analysis for one function's unified pattern."""

    def __init__(
        self,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        *,
        n_bins: int = config.NUM_BINS,
        merge_tolerance: float = float(config.ACCESS_MERGE_THRESHOLD),
        pack_mode: str = "quantile",
    ) -> None:
        if n_bins < 1:
            raise AnalysisError("need at least one bin")
        if pack_mode not in ("quantile", "greedy"):
            raise AnalysisError("pack_mode must be 'quantile' or 'greedy'")
        self.memory = memory
        self.n_bins = n_bins
        self.merge_tolerance = merge_tolerance
        self.pack_mode = pack_mode

    def _timed(self, table: BinTable, rows: np.ndarray) -> list[float]:
        """Each row's execution time, traced and metered as an execution
        of an unlabelled VM (the modelled system runs the trace).

        Profiling runs on live (resident) memory: pure placement effect,
        no restore faults — those belong to the restore path, not to the
        cost of where pages live.
        """
        results = table.score(self.memory, rows)
        for result in results:
            _observe_execute("", result)
        return [result.time_s for result in results]

    def analyze(
        self,
        pattern: UnifiedAccessPattern,
        profile_trace: InvocationTrace,
        *,
        slowdown_threshold: float | None = None,
    ) -> AnalysisResult:
        """Produce the minimum-cost placement (optionally threshold-bound)."""
        table = BinTable(
            pattern,
            profile_trace,
            n_bins=self.n_bins,
            merge_tolerance=self.merge_tolerance,
            pack_mode=self.pack_mode,
        )
        check_slowdown_threshold(slowdown_threshold)
        n_pages = table.n_pages
        packed = table.bins
        slow = int(Tier.SLOW)
        # Step 1: zero-accessed regions go to the slow tier (the base).
        zero_pages = int(table.sizes[table.n_bins + slow])

        # Steps 2-3: bin profiling — time all-fast, the base, and the base
        # with bins offloaded coldest-first, cumulatively.
        weights = [sum(r.value * r.n_pages for r in b) for b in packed]
        order = sorted(range(len(packed)), key=weights.__getitem__)
        rows = np.tile(table.base, (len(order) + 2, 1))
        rows[0] = int(Tier.FAST)
        for step, bin_idx in enumerate(order, start=2):
            rows[step:, bin_idx] = slow
        dram_time, base_time, *bin_times = self._timed(table, rows)
        if dram_time <= 0:
            raise AnalysisError("profiling trace has zero duration")
        base_slowdown = max(1.0, base_time / dram_time)
        prev_time = base_time
        profiles: list[BinProfile] = []
        for bin_idx, time_b in zip(order, bin_times):
            regions_b = packed[bin_idx]
            pages_b = sum(r.n_pages for r in regions_b)
            delta_sd = max(0.0, (time_b - prev_time) / dram_time)
            prev_time = time_b
            f_b = pages_b / n_pages
            solo_cost = normalized_cost(1.0 + delta_sd, 1.0 - f_b, self.memory)
            profiles.append(
                BinProfile(
                    index=bin_idx,
                    regions=tuple(regions_b),
                    n_pages=pages_b,
                    weight=weights[bin_idx],
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
        profiles = [replace(p, selected=id(p) in selected_ids) for p in profiles]

        final_row = table.base.copy()
        for p in profiles:
            if p.selected:
                final_row[p.index] = slow
        [final_time] = self._timed(table, final_row[None])
        final_placement = table.placement(final_row)
        expected_slowdown = max(1.0, final_time / dram_time)
        slow_fraction = float(np.count_nonzero(final_placement == slow) / n_pages)
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
