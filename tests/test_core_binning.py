"""Property tests for the analyzer's equal-access binning (:func:`pack_bins`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import pack_bins
from repro.regions import Region


@st.composite
def region_lists(draw):
    """Random contiguous live-region lists with positive values."""
    n = draw(st.integers(min_value=1, max_value=30))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=500), min_size=n, max_size=n
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10_000), min_size=n, max_size=n
        )
    )
    regions, start = [], 0
    for size, value in zip(sizes, values):
        regions.append(Region(start, size, value))
        start += size
    return regions


class TestQuantileBinning:
    @given(regions=region_lists(), n_bins=st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_bins_partition_pages(self, regions, n_bins):
        bins = pack_bins(regions, n_bins)
        total_pages = sum(r.n_pages for r in regions)
        binned_pages = sum(r.n_pages for b in bins for r in b)
        assert binned_pages == total_pages
        # Covered page set is exactly the input page set (no overlap).
        covered = np.zeros(max(r.end_page for r in regions), dtype=bool)
        for b in bins:
            for r in b:
                assert not covered[r.start_page : r.end_page].any()
                covered[r.start_page : r.end_page] = True

    @given(regions=region_lists(), n_bins=st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_weight_conserved(self, regions, n_bins):
        bins = pack_bins(regions, n_bins)
        total = sum(r.value * r.n_pages for r in regions)
        binned = sum(r.value * r.n_pages for b in bins for r in b)
        # Splitting preserves density, so total weight drifts only by the
        # integer page rounding at split points.
        assert binned == pytest.approx(total, rel=0.05)

    @given(regions=region_lists())
    @settings(max_examples=60, deadline=None)
    def test_bins_density_sorted(self, regions):
        """Quantile bins are ordered: later bins have hotter regions."""
        bins = pack_bins(regions, 5)
        max_prev = -np.inf
        for b in bins:
            values = [r.value for r in b]
            assert min(values) >= max_prev - 1e-9
            max_prev = max(max(values), max_prev)

    @given(regions=region_lists())
    @settings(max_examples=60, deadline=None)
    def test_mostly_equal_access_weights(self, regions):
        """Section V-C: bins are 'mostly equally accessed'."""
        bins = pack_bins(regions, 10)
        if len(bins) < 2:
            return
        weights = [sum(r.value * r.n_pages for r in b) for b in bins]
        total = sum(weights)
        target = total / 10
        # Interior bins stay within [0, 2*target] except where a single
        # indivisible hot page dominates.
        max_page_weight = max(r.value for rs in bins for r in rs)
        for w in weights[:-1]:
            assert w <= 2 * target + max_page_weight + 1e-6

    def test_greedy_mode_places_all_items(self):
        regions = [Region(i * 10, 10, float(i + 1)) for i in range(7)]
        bins = pack_bins(regions, 3, "greedy")
        assert sum(len(b) for b in bins) == 7
