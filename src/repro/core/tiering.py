"""Snapshot tiering (Section V-D), region merging (Section V-F) and bin
placement across an N-tier chain.

Partitions the single-tier snapshot into the per-tier files plus the
memory layout file.  The layout builder already merges adjacent same-tier
regions (bins merging); access-count merging happened earlier, when the
unified pattern produced its regions.

Equation 1 is a capacity-weighted price times a slowdown, so it holds for
any number of tiers.  Putting a bin on a tier adds a fixed amount to the
time and a fixed amount to the price, so the cheapest placement under
any slowdown budget lies on the (time, price) Pareto frontier, which
:func:`_pareto_choices` builds exactly, bin by bin.  Two callers feed it
an option table on an N-tier memory system (software compressed tiers,
:mod:`repro.memsim.compressed`):

* :func:`spread_bins_across_tiers` -- the cheap snapshot-build-time
  mapping, scored by an Equation-1 *estimate* anchored at the measured
  two-tier analysis, so snapshot bins land on DRAM / compressed-DRAM /
  PMEM as the chain offers.  Without middle tiers it is the identity and
  the classic two-tier snapshot is produced byte-identically.
* :func:`search_tier_placement` -- the measured search: a bin's options
  are timed on the profiling trace, as the paper's bin profiling does,
  from per-epoch access tallies, so an option costs work in epochs x
  tiers rather than in guest pages.  The chosen placement is re-scored
  from its tallies, which are sums of integer trace counts, exact in
  float64, so the result is bit-identical to replaying the trace on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _pareto_choices(
    start: tuple[float, float],
    d_time: np.ndarray,
    d_price: np.ndarray,
    *,
    base_time: float,
    max_time: float = math.inf,
) -> np.ndarray:
    """Every (time, price)-Pareto-optimal choice of one option per bin,
    cheapest first.

    Choosing option ``k`` for bin ``b`` adds ``d_time[b, k]`` and
    ``d_price[b, k]`` to ``start``'s (time, price).  Equation 1,
    ``max(1, time / base_time) * price``, rises with both, so its minimum
    under a time budget lies on the Pareto frontier.  The frontier is
    built bin by bin: every point is extended by every option, points
    over ``max_time`` are dropped, and a point is kept only if it is
    strictly cheaper than every point at most as slow.

    Returns one row of option indices per frontier point, sorted by
    Equation 1.  Equal costs keep the faster point first; of equal
    points the one built from lower option indices survives.  No row
    comes back when every choice is over ``max_time``.
    """
    n_bins, n_options = d_time.shape
    time = np.array([start[0]])
    price = np.array([start[1]])
    parents: list[np.ndarray] = []
    options: list[np.ndarray] = []
    for b in range(n_bins):
        t = (time[:, None] + d_time[b]).ravel()
        p = (price[:, None] + d_price[b]).ravel()
        order = np.lexsort((p, t))
        order = order[t[order] <= max_time]
        p_sorted = p[order]
        keep = np.ones(order.size, dtype=bool)
        keep[1:] = p_sorted[1:] < np.minimum.accumulate(p_sorted)[:-1]
        order = order[keep]
        time, price = t[order], p[order]
        parents.append(order // n_options)
        options.append(order % n_options)
    # The frontier is in time order, so a stable sort breaks cost ties
    # toward the faster point.
    point = np.argsort(np.maximum(1.0, time / base_time) * price, kind="stable")
    choices = np.empty((point.size, n_bins), dtype=np.intp)
    for b in range(n_bins - 1, -1, -1):
        choices[:, b] = options[b][point]
        point = parents[b][point]
    return choices


def spread_bins_across_tiers(
    analysis: AnalysisResult, memory: MemorySystem
) -> np.ndarray:
    """Re-assign offloaded bins across the memory system's tier chain.

    Each offloaded bin goes to the slow tier or a middle tier, whichever
    assignment minimises an Equation-1 *estimate*: each bin's measured
    incremental slowdown is scaled by the candidate tier's latency
    position between the fast and slow tiers, and its price share moves
    to the candidate's price.  The estimate anchors exactly at the
    measured two-tier point (all bins on the slow tier reproduce
    ``analysis.expected_slowdown`` and ``analysis.cost``-shaped terms).
    The measured search is :func:`search_tier_placement`; this spread is
    the cheap snapshot-build-time mapping.

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
    price = np.array([memory.price_relative(t) for t in candidates])
    # Latency position of each candidate between fast (0) and slow (1):
    # the share of a bin's measured slow-tier slowdown it retains there.
    scale = np.array(
        [
            min(max((float(lat[t]) - lat_fast) / span, 0.0), 1.0)
            for t in candidates
        ]
    )

    bins = analysis.selected_bins
    if not bins:
        return placement
    delta = np.array([max(float(b.incremental_slowdown), 0.0) for b in bins])
    frac = np.array([b.n_pages / analysis.n_pages for b in bins])

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

    choice = _pareto_choices(
        (analysis.expected_slowdown, fixed_price),
        -np.outer(delta, 1.0 - scale),
        np.outer(frac, price),
        base_time=1.0,
    )[0]
    for b, k in zip(bins, choice.tolist()):
        for region in b.regions:
            placement[region.start_page : region.end_page] = candidates[k]
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


def search_tier_placement(
    pattern: UnifiedAccessPattern,
    profile_trace: InvocationTrace,
    memory: MemorySystem,
    *,
    slowdown_threshold: float | None = None,
) -> TierPlacement:
    """Minimum-cost placement of the pattern's bins on ``memory``'s chain.

    Packs the pattern into the analyzer's equal-access bins and puts
    every zero-accessed region on the terminal (slow) tier.  Each bin may
    go to any tier: per epoch, its accesses times that tier's latency add
    to the time ``profile_trace`` takes, and its pages times the tier's
    price add to the price.  :func:`_pareto_choices` orders the Pareto
    frontier of those options by Equation 1
    (:func:`~repro.core.cost.normalized_cost_tiers`); the first point
    whose re-scored slowdown is within ``slowdown_threshold`` (Section
    V-C's client knob) wins.  If none is, every bin stays on the fast
    tier.

    The trace is tallied once: per epoch, each bin's accesses, and the
    accesses of the pages no bin covers on their tiers.  A placement's
    per-tier tallies are sums of those integer counts below 2**53, so
    they are exact in float64 in any summation order, and the chosen
    placement's time, tier fractions, cost and slowdown are bit-identical
    to replaying the trace on it page by page.
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
    n_bins = len(bins)

    placement = np.full(n_pages, int(Tier.FAST), dtype=np.uint8)
    for region in regions:
        if region.value <= 0:
            placement[region.start_page : region.end_page] = int(Tier.SLOW)

    # Tier k in chain order is column k.  A page's key is its bin, or
    # ``n_bins + k`` for a page no bin covers, which stays on its tier k.
    # ``totals[key, e]`` is the key's access count in epoch ``e`` and
    # ``sizes[key]`` its page count; all are exact integer sums.
    ids = list(memory.tier_ids)
    col = np.empty(n_tiers, dtype=np.int64)
    col[ids] = np.arange(n_tiers)
    key = n_bins + col[placement]
    for b, regions_b in enumerate(bins):
        for region in regions_b:
            key[region.start_page : region.end_page] = b
    n_keys = n_bins + n_tiers
    epochs = profile_trace.epochs
    n_epochs = len(epochs)
    epoch_of = np.repeat(
        np.arange(n_epochs, dtype=np.int64), np.diff(profile_trace.epoch_ptr)
    )
    totals = np.bincount(
        key[profile_trace.pages] * n_epochs + epoch_of,
        weights=profile_trace.counts,
        minlength=n_keys * n_epochs,
    ).reshape(n_keys, n_epochs)
    sizes = np.bincount(key, minlength=n_keys)
    # Each epoch's latency vector (chain order) is resolved once per search.
    latency = memory.access_latency_by_id
    lat = np.array(
        [latency(e.random_fraction, e.store_fraction)[ids] for e in epochs]
    ).reshape(n_epochs, n_tiers)
    cpu = [epoch.cpu_time_s for epoch in epochs]
    touched = [epoch.pages.size > 0 for epoch in epochs]

    def time_s(tl: np.ndarray) -> float:
        # The row sums reduce each epoch's products as the per-epoch 1-D
        # ``.sum()`` of a replay does, and the epochs fold in order.
        total = 0.0
        for cpu_s, has_pages, access_s in zip(
            cpu, touched, (tl * lat).sum(axis=1).tolist()
        ):
            total += cpu_s
            if has_pages:
                total += access_s
        return total

    all_fast = np.zeros((n_epochs, n_tiers))
    all_fast[:, col[int(Tier.FAST)]] = totals.sum(axis=0)
    base_time = time_s(all_fast)
    if base_time <= 0:
        raise AnalysisError("profiling trace has zero duration")

    def tallies(choice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-epoch, per-tier accesses and per-tier pages when bin ``b``
        sits wholly on the tier in chain position ``choice[b]``."""
        onehot = np.zeros((n_keys, n_tiers), dtype=np.int64)
        onehot[np.arange(n_bins), choice] = 1
        onehot[n_bins:] = np.eye(n_tiers, dtype=np.int64)
        return totals.T @ onehot, sizes @ onehot

    # The option table, in chain order; its float sums order the
    # frontier, and the chosen point is re-scored from its tallies.
    price = np.array([memory.price_relative(t) for t in ids])
    bin_totals = totals[:n_bins]
    fixed = totals[n_bins:].T
    start = (
        sum(cpu) + float((fixed * lat).sum()),
        float(sizes[n_bins:] @ price) / n_pages,
    )
    max_time = math.inf
    if slowdown_threshold is not None:
        # Relative slack for the rounding by which the option sums can
        # differ from the re-scored time; the re-score decides.
        max_time = base_time * (1.0 + slowdown_threshold) * (1.0 + 1e-9)
    choices = _pareto_choices(
        start,
        bin_totals @ lat,
        np.outer(sizes[:n_bins] / n_pages, price),
        base_time=base_time,
        max_time=max_time,
    )

    for choice in (*choices, np.zeros(n_bins, dtype=np.intp)):
        tl, pg = tallies(choice)
        slowdown = normalized_slowdown(time_s(tl), base_time)
        if slowdown_threshold is None or slowdown - 1.0 <= slowdown_threshold:
            break
    cost = normalized_cost_tiers(slowdown, pg / n_pages, memory)
    for regions_b, k in zip(bins, choice.tolist()):
        for region in regions_b:
            placement[region.start_page : region.end_page] = ids[k]
    return TierPlacement(
        placement=placement,
        slowdown=slowdown,
        cost=cost,
        tier_fractions=tuple(float(f) for f in pg / n_pages),
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
