"""TOSS's unified access-pattern file (Section V-B).

The profiling phase merges every invocation's DAMON file into one unified
pattern.  Two aggregates are kept, one value per *segment* of the union
of every DAMON region boundary folded in so far:

* the **cumulative maximum** observed value drives the *convergence* test:
  it is monotone, so once the biggest input's pattern has been covered the
  quantised signature stops changing — exactly the termination rule of
  Section V-B ("if the access pattern file does not change for N sequential
  invocations").  A later invocation that does change it (a larger input
  appearing after the snapshot was built) is what Section V-E's
  re-profiling machinery watches for.
* the **running mean** drives the region *values* used by the analysis:
  coarse-region smear from DAMON's early, unadapted windows decays as
  ``1/N`` instead of sticking forever, so truly cold pages converge back
  to the zero class.

A DAMON file gives every page of one of its regions the same value, so
every page of a segment has seen the same value in every file: the same
maximum, sum and observation count.  Each per-page quantity the pattern
derives is an elementwise function of those, so the per-segment result is
every page's result bit for bit.  Nothing page-long outlives a call: the
queries compute per segment and expand to pages (``np.repeat``) only for
what they return or reduce, so every float reduction (a region's mean
value) runs over the same page array as a per-page pattern's.  A
DAMON file has at most ``max_nr_regions`` regions, so a pattern that has
folded in ``N`` files has at most ``N * max_nr_regions`` segments, and
never more than the guest has pages.
"""

from __future__ import annotations

import numpy as np

from .. import config
from ..domains import CountDomain, check_value
from ..errors import ProfilingError
from ..regions import Region, merge_adjacent, regions_from_values
from .damon import DamonSnapshot

__all__ = ["UnifiedAccessPattern"]

NOISE_FLOOR = 4.0
"""Per-page DAMON values below this count as unobserved."""

STABILITY_TOLERANCE = 0.01
"""Fraction of guest pages whose signature bucket may change while the
file still counts as unchanged."""

PRESENCE_THRESHOLD = 0.25
"""Share of invocations a page must be observed in to keep its value."""


class UnifiedAccessPattern:
    """Running merge of DAMON files with convergence detection."""

    def __init__(
        self,
        n_pages: int,
        *,
        convergence_window: int = config.CONVERGENCE_WINDOW,
    ) -> None:
        check_value(CountDomain(1), n_pages, "n_pages", ProfilingError)
        check_value(
            CountDomain(1), convergence_window, "convergence_window", ProfilingError
        )
        self.n_pages = int(n_pages)
        self.convergence_window = int(convergence_window)
        # Segment i is pages _bounds[i].._bounds[i + 1]; the per-segment
        # arrays below hold the same value for each of its pages.
        self._bounds = np.array([0, self.n_pages], dtype=np.int64)
        self._max = np.zeros(1, dtype=np.float64)
        self._sum = np.zeros(1, dtype=np.float64)
        self._hits = np.zeros(1, dtype=np.int64)
        self.invocations = 0
        self._stable_count = 0
        self._signature: np.ndarray | None = None

    # -- updates -----------------------------------------------------------

    def update(self, snapshot: DamonSnapshot) -> bool:
        """Fold one invocation's DAMON file in; True if the file changed.

        "Changed" means the quantised max-signature moved — the criterion
        the termination rule counts stability against.
        """
        if snapshot.n_pages != self.n_pages:
            raise ProfilingError(
                f"DAMON file covers {snapshot.n_pages} pages, pattern has "
                f"{self.n_pages}"
            )
        at = np.searchsorted(self._bounds, snapshot.bounds)
        fresh = self._bounds[at] != snapshot.bounds
        if fresh.any():
            # Split segments at the file's new boundaries: each piece
            # inherits the history of the segment it was cut from.
            at = at[fresh]
            pieces = np.bincount(at - 1, minlength=self._bounds.size - 1) + 1
            parent = np.repeat(np.arange(pieces.size), pieces)
            self._max = self._max[parent]
            self._sum = self._sum[parent]
            self._hits = self._hits[parent]
            if self._signature is not None:
                self._signature = self._signature[parent]
            self._bounds = np.insert(self._bounds, at, snapshot.bounds[fresh])
        # Each of the file's regions now spans whole segments.
        edges = np.searchsorted(self._bounds, snapshot.bounds)
        values = np.repeat(snapshot.means, np.diff(edges))
        np.maximum(self._max, values, out=self._max)
        self._sum += values
        self._hits += values >= NOISE_FLOOR
        self.invocations += 1
        signature = self._quantise_monotone(self._max)
        if self._signature is None:
            changed = True
        else:
            # "Unchanged" tolerates a sliver of churn: allocation jitter
            # keeps a few boundary pages hopping buckets forever, which is
            # noise, not new access-pattern information.
            churn = int(np.diff(self._bounds)[signature != self._signature].sum())
            changed = churn > STABILITY_TOLERANCE * self.n_pages
        if changed:
            self._stable_count = 0
        else:
            self._stable_count += 1
        self._signature = signature
        return changed

    @staticmethod
    def _quantise_monotone(values: np.ndarray) -> np.ndarray:
        """Ceil-log2 buckets for the monotone convergence signature."""
        return np.ceil(np.log2(1.0 + values)).astype(np.int16)

    @staticmethod
    def _quantise_round(values: np.ndarray) -> np.ndarray:
        """Round-log2 buckets for region values: rare contamination of cold
        pages (mean < 0.41) still classifies as zero-accessed."""
        return np.round(np.log2(1.0 + values)).astype(np.int16)

    # -- queries -------------------------------------------------------------

    def reset_stability(self) -> None:
        """Restart the convergence countdown without losing the pattern.

        Used when re-profiling (Section V-E): the accumulated access
        pattern is *enhanced* by further invocations, so history is kept,
        but the snapshot must not regenerate until the enhanced pattern
        has been stable for a full window again.
        """
        self._stable_count = 0

    @property
    def converged(self) -> bool:
        """Whether the file has been stable for the whole window."""
        return self._stable_count >= self.convergence_window

    @property
    def stable_invocations(self) -> int:
        """Consecutive invocations without a signature change."""
        return self._stable_count

    def page_values(self) -> np.ndarray:
        """Occupancy-filtered conditional mean per page.

        Pages observed (above the noise floor) in too few invocations are
        classified zero: a couple of observations are indistinguishable
        from coarse-region sampling artefacts, and transient placements
        (a scattered allocation landing there once) carry negligible
        expected cost.  Pages observed regularly get the mean of their
        *observed* values, so a page that is hot whenever it is populated
        — e.g. the jitter margin of a hot band — reads hot rather than
        diluted, and correctly stays in DRAM.
        """
        return np.repeat(self._segment_values(), np.diff(self._bounds))

    def _segment_values(self) -> np.ndarray:
        """:meth:`page_values` per segment."""
        if self.invocations == 0:
            raise ProfilingError("no DAMON files folded in yet")
        presence = self._hits / self.invocations
        with np.errstate(invalid="ignore"):
            conditional = self._sum / np.maximum(self._hits, 1)
        values = np.where(presence >= PRESENCE_THRESHOLD, conditional, 0.0)
        values[values < NOISE_FLOOR] = 0.0
        return values

    def regions(
        self,
        *,
        merge_tolerance: float = 0.0,
        min_region_pages: int = 1,
    ) -> list[Region]:
        """Quantised regions of the unified pattern.

        Pages are first bucketed (round-log2 of the mean), adjacent
        equal-bucket pages become regions carrying the mean raw value, then
        Section V-F's access-count merging folds neighbours whose raw
        values differ by at most ``merge_tolerance``.  ``min_region_pages``
        absorbs slivers below DAMON's minimum region size into the
        neighbour they resemble most.
        """
        segment_values = self._segment_values()
        lengths = np.diff(self._bounds)
        values = np.repeat(segment_values, lengths)
        signature = np.repeat(self._quantise_round(segment_values), lengths)
        raw = []
        for region in regions_from_values(signature):
            window = values[region.start_page : region.end_page]
            # Zero-class regions are zero-accessed by definition.
            value = 0.0 if region.value == 0 else float(window.mean())
            raw.append(region.with_value(value))
        if min_region_pages > 1:
            raw = _absorb_slivers(raw, min_region_pages)
        if merge_tolerance > 0:
            raw = merge_adjacent(
                raw, tolerance=merge_tolerance, weighted=True, preserve_zero=True
            )
        return raw


def _absorb_slivers(regions: list[Region], min_pages: int) -> list[Region]:
    """Merge regions smaller than ``min_pages`` into a neighbour.

    Prefers the neighbour with the closer value so a 2-page jitter sliver
    between two bands joins the band it resembles.  Regions are merged
    first sliver first; every region before a merge is at least
    ``min_pages`` and stays so, so the scan resumes at the merge index.
    """
    out = list(regions)
    i = 0
    while i < len(out) and len(out) > 1:
        region = out[i]
        if region.n_pages >= min_pages:
            i += 1
            continue
        left = out[i - 1] if i > 0 else None
        right = out[i + 1] if i + 1 < len(out) else None
        if right is None or (
            left is not None
            and abs(left.value - region.value) <= abs(right.value - region.value)
        ):
            total = left.n_pages + region.n_pages
            value = (left.value * left.n_pages + region.value * region.n_pages) / total
            out[i - 1] = Region(left.start_page, total, value)
            del out[i]
        else:
            total = right.n_pages + region.n_pages
            value = (right.value * right.n_pages + region.value * region.n_pages) / total
            out[i] = Region(region.start_page, total, value)
            del out[i + 1]
    return out
