"""Snapshot tiering (Section V-D), region merging (Section V-F) and bin
placement across an N-tier chain.

Partitions the single-tier snapshot into the per-tier files plus the
memory layout file.  The layout builder already merges adjacent same-tier
regions (bins merging); access-count merging happened earlier, when the
unified pattern produced its regions.

Equation 1 is a capacity-weighted price times a slowdown, so it holds for
any number of tiers.  On an N-tier memory system (software compressed
tiers, :mod:`repro.memsim.compressed`) two searches place bins on the
chain's stable tier ids, both greedy single-bin-move hill climbs
(:func:`_climb`) that differ in objective, candidate order and round
bound:

* :func:`spread_bins_across_tiers` -- the cheap snapshot-build-time
  mapping, scored by an Equation-1 *estimate* anchored at the measured
  two-tier analysis, so snapshot bins land on DRAM / compressed-DRAM /
  PMEM as the chain offers.  Without middle tiers it is the identity and
  the classic two-tier snapshot is produced byte-identically.
* :func:`search_tier_placement` -- the measured search: every candidate
  move is timed on the profiling trace under the trial placement, as the
  paper's bin profiling does.  It keeps per-epoch, per-tier access
  tallies for the current placement and each bin's share of them, so a
  candidate costs work in epochs x tiers rather than in guest pages.
  The tallies are sums of integer trace counts, exact in float64, so
  the result is bit-identical to replaying the trace on each trial
  placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import AnalysisError, SnapshotError
from ..memsim.tiers import MemorySystem, Tier
from ..profiling.unified import UnifiedAccessPattern
from ..sim.timing import normalized_slowdown
from ..trace.events import InvocationTrace
from ..vm.layout import MemoryLayout
from ..vm.snapshot import SingleTierSnapshot, TieredSnapshot
from .analysis import AnalysisResult, ProfilingAnalyzer, check_slowdown_threshold
from .cost import normalized_cost_tiers

__all__ = [
    "TierPlacement",
    "build_tiered_snapshot",
    "search_tier_placement",
    "spread_bins_across_tiers",
]

SEARCH_ROUNDS = 200
"""Round bound of :func:`search_tier_placement`'s hill climb."""


def _climb(
    assign: list[int],
    tiers: Sequence[int],
    evaluate: Callable[[int, int], float | None],
    current: float,
    rounds: int,
) -> Iterator[tuple[int, int]]:
    """Hill-climb single-bin tier moves, yielding each applied move.

    ``assign[b]`` is bin ``b``'s tier id and is updated in place.
    ``evaluate(b, t)`` is the objective after moving bin ``b`` to tier
    ``t``, or ``None`` when the move is infeasible.  Each round applies
    the lowest-objective move that beats ``current`` by more than 1e-12
    (the first found wins ties) and yields its ``(b, t)``; the climb
    stops when no move helps or after ``rounds`` rounds.
    """
    for _ in range(rounds):
        best: tuple[float, int, int] | None = None
        for b, at in enumerate(assign):
            for t in tiers:
                if t == at:
                    continue
                objective = evaluate(b, t)
                if objective is not None and objective < current - 1e-12 and (
                    best is None or objective < best[0]
                ):
                    best = (objective, b, t)
        if best is None:
            return
        current, b, t = best
        assign[b] = t
        yield b, t


def spread_bins_across_tiers(
    analysis: AnalysisResult, memory: MemorySystem
) -> np.ndarray:
    """Re-assign offloaded bins across the memory system's tier chain.

    Starts from the two-tier placement (everything offloaded sits on the
    slow tier) and hill-climbs single-bin moves onto middle tiers using
    an Equation-1 *estimate*: each bin's measured incremental slowdown is
    scaled by the candidate tier's latency position between the fast and
    slow tiers, and its price share moves to the candidate's price.  The
    estimate anchors exactly at the measured two-tier point (all bins on
    the slow tier reproduce ``analysis.expected_slowdown`` and
    ``analysis.cost``-shaped terms), so a move is applied only when it
    improves on the measured configuration's estimate.  The measured
    search (per-move executions) is :func:`search_tier_placement`; this
    spread is the cheap snapshot-build-time mapping.

    Returns a new placement array; without middle tiers it is an
    unmodified copy.
    """
    placement = analysis.placement.copy()
    if not memory.middle:
        return placement
    lat = memory.access_latency_by_id()
    lat_fast = float(lat[int(Tier.FAST)])
    lat_slow = float(lat[int(Tier.SLOW)])
    span = max(lat_slow - lat_fast, 1e-18)
    candidates = (int(Tier.SLOW), *range(2, 2 + len(memory.middle)))
    price = {t: memory.price_relative(t) for t in candidates}
    # Latency position of each candidate between fast (0) and slow (1):
    # the share of a bin's measured slow-tier slowdown it retains there.
    scale = {
        t: min(max((float(lat[t]) - lat_fast) / span, 0.0), 1.0)
        for t in candidates
    }

    bins = analysis.selected_bins
    if not bins:
        return placement
    delta = [max(float(b.incremental_slowdown), 0.0) for b in bins]
    frac = [b.n_pages / analysis.n_pages for b in bins]
    assign = [int(Tier.SLOW)] * len(bins)

    # Price of everything *not* being moved (fast pages plus zero-page
    # offload already resting on the slow tier).
    counts = np.bincount(placement, minlength=2)
    moved_pages = sum(b.n_pages for b in bins)
    fixed_fast = (int(counts[int(Tier.FAST)])) / analysis.n_pages
    fixed_slow = (
        int(counts[int(Tier.SLOW)]) - moved_pages
    ) / analysis.n_pages
    fixed_price = fixed_fast * memory.price_relative(Tier.FAST)
    fixed_price += fixed_slow * memory.price_relative(Tier.SLOW)

    def estimate(assignment: list[int]) -> float:
        sd = analysis.expected_slowdown - sum(
            delta[i] * (1.0 - scale[t]) for i, t in enumerate(assignment)
        )
        total_price = fixed_price + sum(
            frac[i] * price[t] for i, t in enumerate(assignment)
        )
        return max(sd, 1.0) * total_price

    def evaluate(b: int, t: int) -> float:
        trial = list(assign)
        trial[b] = t
        return estimate(trial)

    rounds = len(bins) * len(candidates)
    for b, t in _climb(assign, candidates, evaluate, estimate(assign), rounds):
        for region in bins[b].regions:
            placement[region.start_page : region.end_page] = t
    return placement


@dataclass(frozen=True)
class TierPlacement:
    """Outcome of :func:`search_tier_placement`."""

    placement: np.ndarray
    """Tier id of every guest page."""
    slowdown: float
    cost: float
    """Normalised Equation-1 cost (all-fast = 1.0)."""
    tier_fractions: tuple[float, ...]
    """Share of guest memory on each tier, in chain order."""
    moves: int


def search_tier_placement(
    pattern: UnifiedAccessPattern,
    profile_trace: InvocationTrace,
    memory: MemorySystem,
    *,
    slowdown_threshold: float | None = None,
    seed_placement: np.ndarray | None = None,
) -> TierPlacement:
    """Minimum-cost placement of the pattern's bins on ``memory``'s chain.

    Packs the pattern into the analyzer's equal-access bins, starts with
    every bin on the fast tier and every zero-accessed region on the
    terminal (slow) tier, then hill-climbs single-bin moves over the
    tiers in chain order.  Each trial placement is scored by Equation 1
    (:func:`~repro.core.cost.normalized_cost_tiers`) at the slowdown
    ``profile_trace`` takes on it; moves whose slowdown exceeds
    ``slowdown_threshold`` are skipped, exactly like Section V-C's
    client knob.

    The trace is tallied once: per epoch, the accesses landing on each
    tier under the current placement, and each bin's share of them.
    Moving bin ``b`` to tier ``t`` subtracts ``b``'s share and adds its
    total to ``t``.  Every tally is a sum of integer counts below 2**53,
    so it is exact in float64 in any summation order, and the trial's
    time, tier fractions, cost and slowdown are bit-identical to
    replaying the trace on the trial placement page by page.

    ``seed_placement`` (tier ids) starts the climb from a known placement
    instead.  Every applied move strictly lowers the cost, so the result
    never costs more than its seed.  Tier ids are stable, so a two-tier
    placement seeds any richer chain verbatim: adding tiers then never
    raises the cost at a fixed slowdown budget.
    """
    if pattern.n_pages != profile_trace.n_pages:
        raise AnalysisError("pattern and profiling trace cover different guests")
    check_slowdown_threshold(slowdown_threshold)
    n_pages = pattern.n_pages
    n_tiers = memory.n_tiers
    binner = ProfilingAnalyzer()
    regions = pattern.regions(
        merge_tolerance=binner.merge_tolerance,
        min_region_pages=binner.min_region_pages,
    )
    bins = binner._pack_bins([r for r in regions if r.value > 0])

    if seed_placement is None:
        placement = np.full(n_pages, int(Tier.FAST), dtype=np.uint8)
        for region in regions:
            if region.value <= 0:
                placement[region.start_page : region.end_page] = int(Tier.SLOW)
    else:
        placement = np.asarray(seed_placement, dtype=np.uint8).copy()
        if placement.shape != (n_pages,):
            raise AnalysisError("seed placement shape does not match guest")
        if placement.size and int(placement.max()) >= n_tiers:
            raise AnalysisError(
                f"seed placement references tier {int(placement.max())}, "
                f"chain has {n_tiers}"
            )

    # ``tally[e, k]`` is epoch ``e``'s access count on the ``k``-th tier in
    # chain order and ``pages[k]`` that tier's page count.  Row ``b`` of
    # ``bin_tally``/``bin_pages`` is bin ``b``'s share of them under the
    # current placement; the last row holds the pages no bin covers,
    # which never move.  All are exact integer sums (see above), so a
    # move is exact subtraction and addition.
    ids = list(memory.tier_ids)
    col = np.empty(n_tiers, dtype=np.int64)
    col[ids] = np.arange(n_tiers)
    slot = np.full(n_pages, len(bins), dtype=np.int64)
    for b, regions_b in enumerate(bins):
        for region in regions_b:
            slot[region.start_page : region.end_page] = b
    page_key = slot * n_tiers + col[placement]
    n_slots = len(bins) + 1
    epochs = profile_trace.epochs
    n_epochs = len(epochs)
    epoch_of = np.repeat(
        np.arange(n_epochs, dtype=np.int64), np.diff(profile_trace.epoch_ptr)
    )
    bin_tally = (
        np.bincount(
            epoch_of * (n_slots * n_tiers) + page_key[profile_trace.pages],
            weights=profile_trace.counts,
            minlength=n_epochs * n_slots * n_tiers,
        )
        .reshape(n_epochs, n_slots, n_tiers)
        .transpose(1, 0, 2)
        .copy()
    )
    bin_pages = np.bincount(page_key, minlength=n_slots * n_tiers).reshape(
        n_slots, n_tiers
    )
    bin_total = bin_tally.sum(axis=2)
    bin_size = bin_pages.sum(axis=1)
    tally = bin_tally.sum(axis=0)
    pages = bin_pages.sum(axis=0)
    # Each epoch's latency vector (chain order) is resolved once per search.
    latency = memory.access_latency_by_id
    lat = np.array(
        [latency(e.random_fraction, e.store_fraction)[ids] for e in epochs]
    ).reshape(n_epochs, n_tiers)
    cpu = [epoch.cpu_time_s for epoch in epochs]
    touched = [epoch.pages.size > 0 for epoch in epochs]

    def time_s(tl: np.ndarray) -> float:
        # The row sums reduce each epoch's products as the per-epoch 1-D
        # ``.sum()`` of the replay did, and the epochs fold in the same
        # order (tests/test_perf_identity.py pins the replay).
        total = 0.0
        for cpu_s, has_pages, access_s in zip(
            cpu, touched, (tl * lat).sum(axis=1).tolist()
        ):
            total += cpu_s
            if has_pages:
                total += access_s
        return total

    all_fast = np.zeros_like(tally)
    all_fast[:, col[int(Tier.FAST)]] = tally.sum(axis=1)
    base_time = time_s(all_fast)
    if base_time <= 0:
        raise AnalysisError("profiling trace has zero duration")

    def score(tl: np.ndarray, pg: np.ndarray) -> tuple[float, float]:
        sd = normalized_slowdown(time_s(tl), base_time)
        return normalized_cost_tiers(sd, pg / n_pages, memory), sd

    def moved(b: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Tallies and page counts with bin ``b`` wholly on tier ``t``."""
        k = col[t]
        trial = tally - bin_tally[b]
        trial[:, k] += bin_total[b]
        trial_pages = pages - bin_pages[b]
        trial_pages[k] += bin_size[b]
        return trial, trial_pages

    def evaluate(b: int, t: int) -> float | None:
        cost, sd = score(*moved(b, t))
        if slowdown_threshold is not None and sd - 1.0 > slowdown_threshold:
            return None
        return cost

    # A bin's starting tier comes from the (possibly seeded) placement so
    # the "skip the current tier" test stays truthful.
    assign = [int(placement[b[0].start_page]) for b in bins]
    moves = 0
    for b, t in _climb(
        assign, ids, evaluate, score(tally, pages)[0], SEARCH_ROUNDS
    ):
        tally, pages = moved(b, t)
        k = col[t]
        bin_tally[b] = 0.0
        bin_tally[b, :, k] = bin_total[b]
        bin_pages[b] = 0
        bin_pages[b, k] = bin_size[b]
        for region in bins[b]:
            placement[region.start_page : region.end_page] = t
        moves += 1
    cost, slowdown = score(tally, pages)
    return TierPlacement(
        placement=placement,
        slowdown=slowdown,
        cost=cost,
        tier_fractions=tuple(float(f) for f in pages / n_pages),
        moves=moves,
    )


def build_tiered_snapshot(
    base: SingleTierSnapshot,
    analysis: AnalysisResult,
    *,
    source_inputs: tuple[int, ...] = (),
    memory: MemorySystem | None = None,
) -> TieredSnapshot:
    """Create the tiered snapshot for an analysis result.

    Copies each region serially into its tier's file (modelled by the
    layout's file offsets) and records the per-region metadata the restore
    path walks.  When ``memory`` has middle tiers, offloaded bins are
    first spread across the chain (:func:`spread_bins_across_tiers`);
    otherwise the classic two-tier layout is built verbatim.
    """
    if base.n_pages != analysis.n_pages:
        raise SnapshotError(
            f"analysis covers {analysis.n_pages} pages, snapshot has "
            f"{base.n_pages}"
        )
    if memory is not None and memory.middle:
        placement = spread_bins_across_tiers(analysis, memory)
    else:
        placement = analysis.placement
    layout = MemoryLayout.from_placement(placement)
    # The per-tier files are physical copies of the single-tier file, so
    # at-rest damage to one snapshot never propagates to the other (the
    # lazy-restore fallback depends on this).
    return TieredSnapshot(
        base=base.copy(),
        layout=layout,
        expected_slowdown=analysis.expected_slowdown,
        source_inputs=tuple(source_inputs),
    )
