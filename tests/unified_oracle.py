"""The per-page unified access pattern, kept as the reference for the
per-segment one.

:class:`PerPagePattern` is :class:`repro.profiling.unified.UnifiedAccessPattern`
as it was before the pattern stored one value per segment of the union of
the DAMON boundaries it has folded in: it keeps the cumulative maximum,
the running sum and the observation count as dense per-page arrays and
quantises the whole page array on every update.  Every bit-identity
property compares the segment pattern against this class; nothing in
``src/`` runs it.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.errors import ProfilingError
from repro.profiling.damon import DamonSnapshot
from repro.profiling.unified import (
    NOISE_FLOOR,
    PRESENCE_THRESHOLD,
    STABILITY_TOLERANCE,
    _absorb_slivers,
)
from repro.regions import Region, merge_adjacent, regions_from_values

__all__ = ["PerPagePattern"]


class PerPagePattern:
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
