"""TOSS's unified access-pattern file (Section V-B).

The profiling phase merges every invocation's DAMON file into one unified
pattern.  Two per-page aggregates are kept:

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
"""

from __future__ import annotations

import numpy as np

from .. import config
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
        if n_pages <= 0:
            raise ProfilingError("guest must have at least one page")
        if convergence_window < 1:
            raise ProfilingError("convergence window must be >= 1")
        self.n_pages = int(n_pages)
        self.convergence_window = int(convergence_window)
        self.page_max = np.zeros(self.n_pages, dtype=np.float64)
        self.page_sum = np.zeros(self.n_pages, dtype=np.float64)
        self.page_hits = np.zeros(self.n_pages, dtype=np.int64)
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
        values = snapshot.page_values()
        np.maximum(self.page_max, values, out=self.page_max)
        self.page_sum += values
        self.page_hits += values >= NOISE_FLOOR
        self.invocations += 1
        signature = self._quantise_monotone(self.page_max)
        if self._signature is None:
            changed = True
        else:
            # "Unchanged" tolerates a sliver of churn: allocation jitter
            # keeps a few boundary pages hopping buckets forever, which is
            # noise, not new access-pattern information.
            churn = int(np.count_nonzero(signature != self._signature))
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
        if self.invocations == 0:
            raise ProfilingError("no DAMON files folded in yet")
        presence = self.page_hits / self.invocations
        with np.errstate(invalid="ignore"):
            conditional = self.page_sum / np.maximum(self.page_hits, 1)
        values = np.where(presence >= PRESENCE_THRESHOLD, conditional, 0.0)
        values[values < NOISE_FLOOR] = 0.0
        return values

    def observed_mask(self) -> np.ndarray:
        """Pages classified as accessed (non-zero quantised mean)."""
        if self.invocations == 0:
            raise ProfilingError("no DAMON files folded in yet")
        return self._quantise_round(self.page_values()) > 0

    def zero_fraction(self) -> float:
        """Fraction of guest pages classified as never accessed."""
        return 1.0 - self.observed_mask().mean()

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
        values = self.page_values()
        signature = self._quantise_round(values)
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
