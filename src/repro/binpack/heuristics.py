"""Constant-bin-number greedy packing.

Reimplements the heuristic of the ``binpacking`` PyPI package the paper
cites [6]: to distribute weighted items over exactly ``n_bins`` bins with
near-equal total weights, sort items by weight descending and repeatedly
place the next item into the currently lightest bin (longest-processing-
time / greedy number partitioning).  The result is within 4/3 of the
optimal makespan — plenty for TOSS's "mostly equally accessed bins".
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence, TypeVar

from ..errors import AnalysisError

__all__ = ["to_constant_bin_number", "bin_weights"]

T = TypeVar("T")


def to_constant_bin_number(
    items: Sequence[T],
    n_bins: int,
    key: Callable[[T], float] | None = None,
) -> list[list[T]]:
    """Distribute ``items`` into exactly ``n_bins`` weight-balanced bins.

    Parameters
    ----------
    items:
        The objects to pack.
    n_bins:
        Number of bins; always returns this many lists (some possibly
        empty when there are fewer items than bins).
    key:
        Weight accessor; defaults to ``float(item)``.

    Items with zero weight are spread round-robin after the weighted ones
    so no bin silently accumulates all the weightless items.
    """
    if n_bins < 1:
        raise AnalysisError("need at least one bin")
    weigh = key if key is not None else float
    weighted: list[tuple[float, int, T]] = []
    for idx, item in enumerate(items):
        w = float(weigh(item))
        if w < 0:
            raise AnalysisError("item weights must be non-negative")
        weighted.append((w, idx, item))
    weighted.sort(key=lambda t: t[0], reverse=True)

    bins: list[list[T]] = [[] for _ in range(n_bins)]
    # Heap of (current weight, bin index): pop = lightest bin.
    heap = [(0.0, i) for i in range(n_bins)]
    heapq.heapify(heap)
    zero_items: list[T] = []
    for w, _, item in weighted:
        if w == 0.0:
            zero_items.append(item)
            continue
        weight, i = heapq.heappop(heap)
        bins[i].append(item)
        heapq.heappush(heap, (weight + w, i))
    for j, item in enumerate(zero_items):
        bins[j % n_bins].append(item)
    return bins

