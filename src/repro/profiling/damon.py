"""DAMON (Data Access MONitor) simulator.

Implements DAMON's actual algorithm over simulated execution epochs:

* The address space is partitioned into regions.  Every *sampling
  interval* DAMON picks one random page per region, clears its accessed
  bit, and checks it one interval later; a set bit increments the region's
  ``nr_accesses``.
* Every *aggregation interval* the counters are emitted and reset, and the
  region set adapts: adjacent regions with similar ``nr_accesses`` merge,
  and regions are randomly split in two (subject to a minimum region size
  and a maximum region count).

We vectorise the inner loop: for an epoch of duration ``D`` containing
``n = D / sampling_interval`` checks, the number of positive checks in a
region is ``Binomial(n, p)`` where ``p`` is the mean, over the region's
pages, of the probability that a page is accessed within one sampling
interval (``1 - exp(-rate * interval)``).  This reproduces both DAMON's
estimation error (sparse accesses are under-observed — which is exactly
why TOSS's "zero-accessed" offloading is safe but not free) and its
region-granularity artefacts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .. import config, domains
from ..errors import ProfilingError
from ..obs import profile as profile_mod
from ..regions import Region
from ..vm.microvm import EpochRecord

__all__ = ["DamonConfig", "DamonSnapshot", "DamonProfiler"]


@dataclass(frozen=True)
class DamonConfig:
    """DAMON tuning knobs (paper values in Section VI-A)."""

    sampling_interval_s: float = domains.real(
        config.DAMON_SAMPLING_INTERVAL_S, gt=0.0
    )
    min_region_pages: int = domains.count(
        config.DAMON_MIN_REGION_BYTES // config.PAGE_SIZE, least=1
    )
    min_nr_regions: int = domains.count(10, least=1)
    max_nr_regions: int = domains.count(1000, least=1)
    merge_threshold: float = domains.real(0.1, ge=0.0)
    """Adjacent regions merge when their nr_accesses differ by at most this
    fraction of the hotter of the pair (with a one-observation floor)."""

    access_bit_scale: float = domains.real(config.DAMON_ACCESS_BIT_SCALE, gt=0.0)
    """Touches per trace count (accessed bits are set by cache hits too)."""

    def __post_init__(self) -> None:
        domains.check_fields(self, ProfilingError)
        if self.min_nr_regions > self.max_nr_regions:
            raise ProfilingError("need min_nr_regions <= max_nr_regions")


@dataclass(frozen=True, eq=False)
class DamonSnapshot:
    """One invocation's aggregated DAMON output (a "DAMON file").

    ``bounds`` are the region boundaries (``bounds[i]..bounds[i + 1]``
    is region ``i``; they tile ``[0, n_pages)``) and ``means[i]`` is
    region ``i``'s total ``nr_accesses`` observed across the invocation's
    aggregation windows, averaged over its pages.  ``samples`` is the
    total number of checks taken, so ``mean / samples`` is an
    access-probability estimate.  Both arrays are read-only.
    """

    n_pages: int
    bounds: np.ndarray
    means: np.ndarray
    samples: int

    def __post_init__(self) -> None:
        bounds = np.asarray(self.bounds, dtype=np.int64)
        means = np.asarray(self.means, dtype=np.float64)
        if (
            bounds.ndim != 1
            or means.shape != (bounds.size - 1,)
            or means.size == 0
            or bounds[0] != 0
            or bounds[-1] != self.n_pages
            or np.any(bounds[1:] <= bounds[:-1])
        ):
            raise ProfilingError("snapshot regions must tile the guest")
        bounds.flags.writeable = False
        means.flags.writeable = False
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "means", means)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DamonSnapshot):
            return NotImplemented
        return (
            self.n_pages == other.n_pages
            and self.samples == other.samples
            and np.array_equal(self.bounds, other.bounds)
            and np.array_equal(self.means, other.means)
        )

    @property
    def regions(self) -> tuple[Region, ...]:
        """The snapshot as one :class:`Region` per monitoring region."""
        return tuple(
            Region(s, n, v)
            for s, n, v in zip(
                self.bounds[:-1].tolist(),
                np.diff(self.bounds).tolist(),
                self.means.tolist(),
            )
        )

    def page_values(self) -> np.ndarray:
        """Expand to a dense per-page observed-access array."""
        return np.repeat(self.means, np.diff(self.bounds))

    @property
    def observed_pages(self) -> int:
        """Pages inside regions with a non-zero observation."""
        return int(np.diff(self.bounds)[self.means > 0].sum())


class DamonProfiler:
    """Stateful DAMON instance attached to one guest address space."""

    def __init__(
        self,
        n_pages: int,
        cfg: DamonConfig = DamonConfig(),
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        domains.check_value(domains.CountDomain(1), n_pages, "n_pages", ProfilingError)
        self.n_pages = int(n_pages)
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(config.DEFAULT_SEED)
        # Region state as parallel arrays of boundaries: starts[i]..starts[i+1].
        self._bounds = self._initial_bounds()

    def _initial_bounds(self) -> np.ndarray:
        n = min(
            self.cfg.min_nr_regions,
            max(1, self.n_pages // self.cfg.min_region_pages),
        )
        bounds = np.linspace(0, self.n_pages, n + 1).astype(np.int64)
        return np.unique(bounds)

    @property
    def n_regions(self) -> int:
        """Current number of monitoring regions."""
        return len(self._bounds) - 1

    # -- profiling ------------------------------------------------------------

    def profile(self, epochs: tuple[EpochRecord, ...] | list[EpochRecord]) -> DamonSnapshot:
        """Observe one executed invocation; returns its DAMON file.

        Each epoch is treated as one aggregation window; region adaptation
        (merge then split) runs after every window, as in the kernel.
        """
        with profile_mod.phase("profiling/damon"):
            return self._profile(epochs)

    def _profile(
        self, epochs: tuple[EpochRecord, ...] | list[EpochRecord]
    ) -> DamonSnapshot:
        if not epochs:
            raise ProfilingError("cannot profile an empty invocation")
        # Each window's counters are spread onto pages before adapting, so
        # the output is independent of later boundary moves.  The per-page
        # total is constant between consecutive points of the union of
        # every window's boundaries and the final ones, so it is kept per
        # piece of that union, never per page: ``step`` is its difference
        # array, to which a window adds each region's count at its start
        # and takes it off at its end.
        windows = []
        total_samples = 0
        for epoch in epochs:
            values, samples = self._aggregate(epoch)
            windows.append((self._bounds, values.astype(np.int64)))
            total_samples += samples
            self._adapt(values, samples)
        cuts = np.unique(np.concatenate([b for b, _ in windows] + [self._bounds]))
        step = np.zeros(cuts.size, dtype=np.int64)
        for bounds, counts in windows:
            step[np.searchsorted(cuts, bounds[:-1])] += counts
            step[np.searchsorted(cuts, bounds[1:])] -= counts
        # Re-encode the accumulated per-page observations as regions using
        # the final boundaries (what the exported DAMON file contains).
        # The counts are integers, so every sum is exact and the means
        # match the per-slice float ``.mean()`` loop bit for bit.
        piece_sums = np.cumsum(step[:-1]) * np.diff(cuts)
        sizes = np.diff(self._bounds)
        means = (
            np.add.reduceat(piece_sums, np.searchsorted(cuts, self._bounds[:-1]))
            / sizes
        )
        return DamonSnapshot(
            n_pages=self.n_pages,
            bounds=self._bounds,
            means=means,
            samples=total_samples,
        )

    # -- internals ----------------------------------------------------------------

    def _aggregate(self, epoch: EpochRecord) -> tuple[np.ndarray, int]:
        """One aggregation window: per-region nr_accesses estimates."""
        duration = max(epoch.duration_s, self.cfg.sampling_interval_s)
        samples = max(1, int(round(duration / self.cfg.sampling_interval_s)))
        # Per-page probability of being seen accessed in one interval,
        # computed in-place: each step is the same IEEE operation sequence
        # as the old expression chain (``a*(-b)`` is an exact sign flip of
        # ``(-a)*b``), just without the intermediate arrays.
        sizes = np.diff(self._bounds).astype(np.float64)
        if epoch.pages.size:
            p_page = epoch.counts * self.cfg.access_bit_scale
            np.divide(p_page, duration, out=p_page)
            np.multiply(p_page, -self.cfg.sampling_interval_s, out=p_page)
            np.expm1(p_page, out=p_page)
            np.negative(p_page, out=p_page)
            # Epoch pages are validated monotonic, so region membership is
            # a boundary search over the *bounds* (O(R log P)) instead of
            # a per-page search (O(P log R)), and the per-region sums are
            # segment reductions.  Both bincount and reduceat accumulate
            # in page order, so the sums are bit-identical.  The keys take
            # the pages' dtype: mixed dtypes would make searchsorted copy
            # the (much longer) page column to the wider one.
            pos = np.searchsorted(
                epoch.pages, self._bounds.astype(epoch.pages.dtype, copy=False)
            )
            nonempty = pos[:-1] < pos[1:]
            p_sum = np.zeros(self.n_regions)
            if nonempty.any():
                # Empty regions are skipped: each reduceat segment then
                # runs to the next non-empty start, which coincides with
                # the true segment end because the skipped regions
                # contribute no pages.
                p_sum[nonempty] = np.add.reduceat(p_page, pos[:-1][nonempty])
        else:
            p_sum = np.zeros(self.n_regions)
        p_region = np.clip(p_sum / sizes, 0.0, 1.0)
        values = self.rng.binomial(samples, p_region).astype(np.float64)
        return values, samples

    def _adapt(self, values: np.ndarray, samples: int) -> None:
        """DAMON's region adaptation: merge similar neighbours, then split.

        The merge test is relative to the hotter of the two neighbours
        (with a one-observation floor), so a cold-but-nonzero region next
        to a truly idle one keeps its boundary even when another part of
        the address space is orders of magnitude hotter.
        """
        bounds = self._bounds
        merged = bounds[self._merge_keep(bounds, values)]

        # Split pass: halve regions at a random point while under the cap.
        # Every region of at least two minimum sizes is cut while budget
        # remains, so the cuts fall in the first ``budget`` eligible
        # regions.  One array-bounded ``integers`` call draws the same
        # values, and leaves the generator in the same state, as one
        # scalar call per region in address order.
        min_pages = self.cfg.min_region_pages
        budget = max(self.cfg.max_nr_regions - (merged.size - 1), 0)
        starts = merged[:-1]
        ends = merged[1:]
        eligible = np.flatnonzero(ends - starts >= 2 * min_pages)[:budget]
        if eligible.size:
            # Cuts land in [start + min_pages, end - min_pages]: strictly
            # interior, so inserting each after its region's start keeps
            # the bounds strictly increasing.
            cuts = self.rng.integers(
                starts[eligible] + min_pages, ends[eligible] - min_pages + 1
            )
            merged = np.insert(merged, eligible + 1, cuts)
        self._bounds = merged

    def _merge_keep(self, bounds: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Mask of the boundaries that survive the merge pass.

        Boundary ``i`` merges region ``i`` into the region on its left
        when their values differ by at most the threshold; the merged
        region carries the page-weighted mean forward, so chains of
        similar regions merge transitively.  A test whose left region
        was not merged reads two original values, so all tests are first
        taken at once on the original values.  Only along a merge chain
        does the left value become a running mean; those tests are
        redone in order on Python floats, whose arithmetic is the IEEE
        arithmetic of the array form.
        """
        merge_threshold = self.cfg.merge_threshold
        left = values[:-1]
        right = values[1:]
        scale = merge_threshold * np.where(left > right, left, right)
        threshold = np.where(scale > 1.0, scale, 1.0)
        keep = np.ones(bounds.size, dtype=bool)
        keep[1:-1] = np.abs(right - left) > threshold
        merges = np.flatnonzero(~keep).tolist()
        if not merges:
            return keep
        edges = bounds.tolist()
        vals = values.tolist()
        nonzero = np.flatnonzero(values).tolist()
        last = len(vals)
        pos = 0
        while pos < len(merges):
            # Boundary i - 1 was kept, so region i - 1 starts the merged
            # region with its original value.
            i = merges[pos]
            first = edges[i - 1]
            mean = vals[i - 1]
            j = i
            while j < last:
                right_val = vals[j]
                if mean == 0.0 and right_val == 0.0:
                    # Zero merged with zero stays exactly zero: skip the
                    # rest of the zero run at once.
                    n = bisect_left(nonzero, j)
                    k = nonzero[n] if n < len(nonzero) else last
                    keep[j:k] = False
                    j = k
                    continue
                pair_scale = mean if mean > right_val else right_val
                if abs(right_val - mean) > max(1.0, merge_threshold * pair_scale):
                    break
                keep[j] = False
                left_pages = edges[j] - first
                right_pages = edges[j + 1] - edges[j]
                mean = (mean * left_pages + right_val * right_pages) / (
                    left_pages + right_pages
                )
                j += 1
            # Boundary j is kept (or is the end), so the next chain starts
            # at the first vectorised merge past it.
            keep[j] = True
            pos = bisect_right(merges, j, pos)
        return keep
