"""Tests for the DAMON simulator."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.profiling.damon import DamonConfig, DamonProfiler
from repro.vm.microvm import EpochRecord


def record(n_pages, pages, counts, duration=0.05):
    return EpochRecord(
        duration_s=duration,
        pages=np.asarray(pages, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
    )


def profiler(n_pages=8192, seed=7, **cfg_kwargs) -> DamonProfiler:
    return DamonProfiler(
        n_pages,
        DamonConfig(**cfg_kwargs),
        rng=np.random.default_rng(seed),
    )


class TestConfig:
    def test_paper_defaults(self):
        cfg = DamonConfig()
        assert cfg.sampling_interval_s == pytest.approx(10e-6)
        assert cfg.min_region_pages == 4  # 16 kB / 4 kB

    def test_invalid(self):
        with pytest.raises(ProfilingError):
            DamonConfig(sampling_interval_s=0)
        with pytest.raises(ProfilingError):
            DamonConfig(min_region_pages=0)
        with pytest.raises(ProfilingError):
            DamonConfig(min_nr_regions=100, max_nr_regions=10)

    @pytest.mark.parametrize("bad", [-1e-6, float("nan"), float("inf")])
    def test_invalid_sampling_interval(self, bad):
        with pytest.raises(ProfilingError, match="DamonConfig.sampling_interval_s"):
            DamonConfig(sampling_interval_s=bad)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
    def test_invalid_access_bit_scale(self, bad):
        with pytest.raises(ProfilingError, match="DamonConfig.access_bit_scale"):
            DamonConfig(access_bit_scale=bad)

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_invalid_merge_threshold(self, bad):
        with pytest.raises(ProfilingError, match="DamonConfig.merge_threshold"):
            DamonConfig(merge_threshold=bad)

    @pytest.mark.parametrize("value", [2.5, True, math.nan, math.inf])
    def test_non_integer_page_count_rejected(self, value):
        with pytest.raises(ProfilingError, match="n_pages must be an integer"):
            DamonProfiler(value)


class TestRegionInvariants:
    def test_initial_regions_partition_space(self):
        p = profiler()
        assert p._bounds[0] == 0 and p._bounds[-1] == p.n_pages
        assert (np.diff(p._bounds) > 0).all()

    def test_regions_partition_after_profiling(self):
        p = profiler()
        hot = list(range(100, 400))
        for _ in range(6):
            p.profile(
                [record(8192, hot, [200] * len(hot))]
            )
        assert p._bounds[0] == 0 and p._bounds[-1] == p.n_pages
        assert (np.diff(p._bounds) > 0).all()
        assert p.n_regions <= DamonConfig().max_nr_regions


class TestObservation:
    def test_hot_pages_observed(self):
        p = profiler()
        hot = list(range(0, 512))
        snap = None
        for _ in range(4):
            snap = p.profile([record(8192, hot, [500] * 512, duration=0.1)])
        values = snap.page_values()
        assert values[:512].mean() > 10 * max(values[4096:].mean(), 0.01)

    def test_untouched_regions_read_zero(self):
        p = profiler()
        snap = p.profile(
            [record(8192, [], [], duration=0.05)]
        )
        assert snap.page_values().sum() == 0
        assert snap.observed_pages == 0

    def test_sparse_pages_diluted_by_region(self):
        """A few touched pages inside a large idle region are nearly
        invisible: the region's estimate averages over its idle pages
        (Section III-C's granularity nuance)."""
        p = profiler(min_nr_regions=2, max_nr_regions=4)
        snap = p.profile([record(8192, [4000], [50], duration=0.1)])
        # The lone hot page's signal is spread over a multi-thousand-page
        # region, so per-page observation stays far below the dedicated-
        # region expectation (~50 * access_bit_scale).
        assert snap.page_values()[4000] < 1000

    def test_observation_saturates_at_samples(self):
        """nr_accesses can never exceed the number of sampling checks —
        a million-access page looks the same as a thousand-access one
        once the accessed bit is always set (observation #4's ceiling)."""
        p = profiler()
        pages = list(range(0, 8192, 2))
        counts = [10**7] * len(pages)
        snap = p.profile([record(8192, pages, counts, duration=0.01)])
        assert snap.page_values().max() <= snap.samples

    def test_higher_rate_higher_observation(self):
        pages = list(range(0, 256))
        lo = profiler(seed=1).profile(
            [record(8192, pages, [50] * 256, duration=0.1)]
        )
        hi = profiler(seed=1).profile(
            [record(8192, pages, [5000] * 256, duration=0.1)]
        )
        assert hi.page_values()[:256].mean() > lo.page_values()[:256].mean()

    def test_samples_counted(self):
        p = profiler()
        snap = p.profile([record(8192, [0], [10], duration=0.01)])
        assert snap.samples == pytest.approx(0.01 / 10e-6, rel=0.01)

    def test_empty_invocation_rejected(self):
        with pytest.raises(ProfilingError):
            profiler().profile([])

    def test_adaptation_resolves_boundary(self):
        """After a few invocations the hot/cold boundary is region-aligned
        to within the minimum region size."""
        p = profiler(n_pages=4096)
        hot = list(range(0, 1024))
        snap = None
        for _ in range(10):
            snap = p.profile(
                [record(4096, hot, [2000] * 1024, duration=0.1)] * 3
            )
        values = snap.page_values()
        hot_mean = values[:1024].mean()
        cold_mean = values[2048:].mean()
        assert hot_mean > 50 * max(cold_mean, 0.01)


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = profiler(seed=5).profile([record(8192, [0, 1], [100, 100])])
        b = profiler(seed=5).profile([record(8192, [0, 1], [100, 100])])
        np.testing.assert_array_equal(a.page_values(), b.page_values())


class TestMemory:
    def test_profile_allocates_no_guest_sized_array(self):
        """A profiling pass over a large, sparsely touched guest keeps its
        per-page observations per region piece, never per page: nothing
        it allocates comes near one int64 per guest page."""
        n_pages = 262_144
        p = profiler(n_pages=n_pages)
        epochs = [
            record(n_pages, np.arange(0, 4096, 8) + 1000 * e, [50] * 512)
            for e in range(4)
        ]
        p.profile(epochs)  # warm the boundaries and any lazy imports
        tracemalloc.start()
        try:
            p.profile(epochs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_pages * 8 // 4
