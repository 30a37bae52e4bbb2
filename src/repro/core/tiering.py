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
* :func:`search_tier_placement` -- the measured search: options and
  placements are timed on the profiling trace with the analyzer's
  :class:`~repro.core.analysis.BinTable`, bit for bit as executing the
  trace on them does.
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
from .analysis import AnalysisResult, BinTable, check_slowdown_threshold
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
) -> tuple[np.ndarray, np.ndarray]:
    """Every (time, price)-Pareto-optimal choice of one option per bin,
    cheapest first.

    Choosing option ``k`` for bin ``b`` adds ``d_time[b, k]`` and
    ``d_price[b, k]`` to ``start``'s (time, price).  Equation 1,
    ``max(1, time / base_time) * price``, rises with both, so its minimum
    under a time budget lies on the Pareto frontier.  The frontier is
    built bin by bin: every point is extended by every option, points
    over ``max_time`` are dropped, and a point is dropped when a point at
    most as slow is cheaper by more than a relative 1e-9.  The slack
    keeps the near-ties whose order the option sums' rounding cannot
    settle.

    Returns one row of option indices per frontier point and each
    point's Equation-1 cost from the option sums, sorted by that cost.
    Equal costs keep the faster point first, then the point built from
    lower option indices.  No row comes back when every choice is over
    ``max_time``.
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
        keep[1:] = p_sorted[1:] * (1.0 - 1e-9) <= np.minimum.accumulate(p_sorted)[:-1]
        order = order[keep]
        time, price = t[order], p[order]
        parents.append(order // n_options)
        options.append(order % n_options)
    # The frontier is in time order, so a stable sort breaks cost ties
    # toward the faster point.
    cost = np.maximum(1.0, time / base_time) * price
    point = np.argsort(cost, kind="stable")
    cost = cost[point]
    choices = np.empty((point.size, n_bins), dtype=np.intp)
    for b in range(n_bins - 1, -1, -1):
        choices[:, b] = options[b][point]
        point = parents[b][point]
    return choices, cost


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

    choices, _ = _pareto_choices(
        (analysis.expected_slowdown, fixed_price),
        -np.outer(delta, 1.0 - scale),
        np.outer(frac, price),
        base_time=1.0,
    )
    choice = choices[0]
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

    Places the bins of the analyzer's :class:`~repro.core.analysis.BinTable`
    (zero-accessed regions stay on the slow tier).  A bin's options are
    the table's time for it alone on each tier, less the base's, and its
    pages at each tier's price.  :func:`_pareto_choices` orders their
    Pareto frontier by Equation 1 (:func:`~repro.core.cost
    .normalized_cost_tiers`).  The first point and every point whose
    option-sum cost is within a relative 1e-9 of it are re-scored on the
    table; the lowest re-scored cost whose slowdown is within
    ``slowdown_threshold`` (Section V-C's client knob) wins, ties to the
    faster point, then to lower option indices.  With none, the next
    batch is tried; with none at all, every bin stays on the fast tier.
    The table's times are the execute engine's, so the result's
    slowdown, fractions and cost are bit-identical to a replay.
    """
    table = BinTable(pattern, profile_trace)
    check_slowdown_threshold(slowdown_threshold)
    n_bins, n_pages = table.n_bins, table.n_pages
    ids = np.array(memory.tier_ids)
    # Probe ``b * n_tiers + k`` puts bin ``b`` alone on chain tier ``k``.
    probes = np.zeros((n_bins, ids.size, n_bins), dtype=np.intp)
    for b in range(n_bins):
        probes[b, :, b] = ids
    all_fast = np.full_like(table.base, int(Tier.FAST))
    rows = np.vstack((all_fast, table.base, table.rows(probes.reshape(-1, n_bins))))
    times = np.array([result.time_s for result in table.score(memory, rows)])
    base_time = float(times[0])
    if base_time <= 0:
        raise AnalysisError("profiling trace has zero duration")
    max_time = math.inf
    if slowdown_threshold is not None:
        # Relative slack for the rounding by which the option sums can
        # differ from the re-scored time; the re-score decides.
        max_time = base_time * (1.0 + slowdown_threshold) * (1.0 + 1e-9)
    price = np.array([memory.price_relative(t) for t in ids])
    uncovered = table.sizes[n_bins:] @ [1.0, memory.price_relative(Tier.SLOW)]
    choices, option_cost = _pareto_choices(
        (float(times[1]), float(uncovered) / n_pages),
        times[2:].reshape(n_bins, ids.size) - times[1],
        np.outer(table.sizes[:n_bins] / n_pages, price),
        base_time=base_time,
        max_time=max_time,
    )

    def rescored(batch: np.ndarray):
        """(cost, time, choice, slowdown, fractions, row) per choice: the
        first three rank the points, ties to the faster, then lower
        option indices."""
        rows = table.rows(ids[batch])
        results = table.score(memory, rows)
        for row, choice, result in zip(rows, batch.tolist(), results):
            slowdown = normalized_slowdown(result.time_s, base_time)
            fractions = table.fractions(row, memory)
            cost = normalized_cost_tiers(slowdown, fractions, memory)
            yield cost, result.time_s, choice, slowdown, fractions, row

    lo = 0
    while lo < len(choices):
        hi = lo + np.count_nonzero(option_cost[lo:] <= option_cost[lo] * (1 + 1e-9))
        within = [
            point
            for point in rescored(choices[lo:hi])
            if slowdown_threshold is None or point[3] - 1.0 <= slowdown_threshold
        ]
        if within:
            break
        lo = hi
    else:  # every bin on the fast tier, over the budget as it may be
        within = list(rescored(np.zeros((1, n_bins), dtype=np.intp)))
    cost, _, _, slowdown, fractions, row = min(within, key=lambda p: p[:3])
    return TierPlacement(
        placement=table.placement(row),
        slowdown=slowdown,
        cost=cost,
        tier_fractions=tuple(float(f) for f in fractions),
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
    # The per-tier files are a copy of the single-tier file: it shares
    # the captured image and keeps its own write ledger, so at-rest
    # damage to one snapshot never propagates to the other (the
    # lazy-restore fallback depends on this).
    return TieredSnapshot(
        base=base.copy(),
        layout=layout,
        expected_slowdown=analysis.expected_slowdown,
        source_inputs=tuple(source_inputs),
    )
