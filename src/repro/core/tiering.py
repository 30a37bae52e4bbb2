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
  move replays the profiling trace under the trial placement, as the
  paper's bin profiling does.
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
from .analysis import AnalysisResult, ProfilingAnalyzer
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
    measured by replaying ``profile_trace`` on it; moves whose slowdown
    exceeds ``slowdown_threshold`` are skipped, exactly like Section
    V-C's client knob.

    ``seed_placement`` (tier ids) starts the climb from a known placement
    instead.  Every applied move strictly lowers the cost, so the result
    never costs more than its seed.  Tier ids are stable, so a two-tier
    placement seeds any richer chain verbatim: adding tiers then never
    raises the cost at a fixed slowdown budget.
    """
    if pattern.n_pages != profile_trace.n_pages:
        raise AnalysisError("pattern and profiling trace cover different guests")
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

    # Per-id tallies are summed in chain order; each epoch's latency
    # vector is resolved once per search, not once per evaluation.
    ids = list(memory.tier_ids)
    epochs = [
        (
            epoch.cpu_time_s,
            epoch.pages,
            epoch.counts,
            memory.access_latency_by_id(
                epoch.random_fraction, epoch.store_fraction
            )[ids],
        )
        for epoch in profile_trace.epochs
    ]

    def time_s(pl: np.ndarray) -> float:
        total = 0.0
        for cpu_s, pages, counts, lat in epochs:
            total += cpu_s
            if pages.size:
                per_id = np.bincount(pl[pages], weights=counts, minlength=n_tiers)
                total += float((per_id[ids] * lat).sum())
        return total

    base_time = time_s(np.full(n_pages, int(Tier.FAST), dtype=np.uint8))
    if base_time <= 0:
        raise AnalysisError("profiling trace has zero duration")

    def fractions(pl: np.ndarray) -> np.ndarray:
        return (np.bincount(pl, minlength=n_tiers) / n_pages)[ids]

    def score(pl: np.ndarray) -> tuple[float, float]:
        sd = normalized_slowdown(time_s(pl), base_time)
        return normalized_cost_tiers(sd, fractions(pl), memory), sd

    def evaluate(b: int, t: int) -> float | None:
        trial = placement.copy()
        for region in bins[b]:
            trial[region.start_page : region.end_page] = t
        cost, sd = score(trial)
        if slowdown_threshold is not None and sd - 1.0 > slowdown_threshold:
            return None
        return cost

    # A bin's starting tier comes from the (possibly seeded) placement so
    # the "skip the current tier" test stays truthful.
    assign = [int(placement[b[0].start_page]) for b in bins]
    moves = 0
    for b, t in _climb(assign, ids, evaluate, score(placement)[0], SEARCH_ROUNDS):
        for region in bins[b]:
            placement[region.start_page : region.end_page] = t
        moves += 1
    # The replay is deterministic: re-scoring the final placement gives
    # the bits the climb saw.
    cost, slowdown = score(placement)
    return TierPlacement(
        placement=placement,
        slowdown=slowdown,
        cost=cost,
        tier_fractions=tuple(float(f) for f in fractions(placement)),
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
