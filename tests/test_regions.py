"""Unit and property tests for region algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError, LayoutError
from repro.regions import (
    Region,
    merge_adjacent,
    regions_from_values,
    regions_to_page_values,
    split_region,
    validate_partition,
)


class TestRegion:
    def test_basic_properties(self):
        r = Region(10, 5, 3.0)
        assert r.end_page == 15

    def test_with_value_copies(self):
        r = Region(0, 4, 1.0)
        r2 = r.with_value(7.0)
        assert r2.value == 7.0 and r.value == 1.0
        assert (r2.start_page, r2.n_pages) == (0, 4)

    def test_rejects_negative_start(self):
        with pytest.raises(AddressSpaceError):
            Region(-1, 5)

    def test_rejects_empty(self):
        with pytest.raises(AddressSpaceError):
            Region(0, 0)

    def test_ordering_by_start(self):
        regions = [Region(20, 1), Region(0, 1), Region(5, 1)]
        assert [r.start_page for r in sorted(regions)] == [0, 5, 20]


class TestRunLengthEncoding:
    def test_single_value(self):
        regions = regions_from_values(np.zeros(10))
        assert regions == [Region(0, 10, 0.0)]

    def test_alternating(self):
        regions = regions_from_values(np.array([1, 1, 2, 2, 1]))
        assert [(r.start_page, r.n_pages, r.value) for r in regions] == [
            (0, 2, 1.0),
            (2, 2, 2.0),
            (4, 1, 1.0),
        ]

    def test_rejects_empty(self):
        with pytest.raises(AddressSpaceError):
            regions_from_values(np.array([]))

    def test_round_trip(self):
        values = np.array([0, 0, 3, 3, 3, 1, 0, 2], dtype=float)
        regions = regions_from_values(values)
        back = regions_to_page_values(regions, values.size)
        np.testing.assert_array_equal(values, back)

    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=200)
    )
    @settings(max_examples=60, deadline=None)
    def test_rle_round_trip_property(self, values):
        arr = np.asarray(values, dtype=float)
        regions = regions_from_values(arr)
        # Regions partition the space.
        validate_partition(regions, arr.size)
        # Adjacent regions always have different values (maximal runs).
        for a, b in zip(regions, regions[1:]):
            assert a.value != b.value
        np.testing.assert_array_equal(
            regions_to_page_values(regions, arr.size), arr
        )


class TestExpand:
    def test_overlap_rejected(self):
        with pytest.raises(LayoutError):
            regions_to_page_values([Region(0, 5, 1), Region(3, 5, 2)], 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(AddressSpaceError):
            regions_to_page_values([Region(8, 5, 1)], 10)

    def test_fill_for_uncovered(self):
        out = regions_to_page_values([Region(2, 2, 9.0)], 6, fill=-1.0)
        assert list(out) == [-1, -1, 9, 9, -1, -1]


class TestMergeAdjacent:
    def test_merges_equal_values(self):
        merged = merge_adjacent([Region(0, 2, 1.0), Region(2, 3, 1.0)])
        assert merged == [Region(0, 5, 1.0)]

    def test_respects_tolerance(self):
        merged = merge_adjacent(
            [Region(0, 2, 10.0), Region(2, 2, 60.0)], tolerance=49.0
        )
        assert len(merged) == 2
        merged = merge_adjacent(
            [Region(0, 2, 10.0), Region(2, 2, 60.0)], tolerance=50.0
        )
        assert len(merged) == 1

    def test_weighted_mean_value(self):
        merged = merge_adjacent(
            [Region(0, 1, 0.0), Region(1, 3, 4.0)], tolerance=10.0
        )
        assert merged[0].value == pytest.approx(3.0)

    def test_unweighted_keeps_left(self):
        merged = merge_adjacent(
            [Region(0, 1, 0.0), Region(1, 3, 4.0)], tolerance=10.0, weighted=False
        )
        assert merged[0].value == 0.0

    def test_gap_not_merged(self):
        merged = merge_adjacent([Region(0, 2, 1.0), Region(5, 2, 1.0)])
        assert len(merged) == 2

    def test_overlap_rejected(self):
        with pytest.raises(LayoutError):
            merge_adjacent([Region(0, 3, 1.0), Region(2, 3, 1.0)])

    def test_preserve_zero_blocks_merge(self):
        regions = [Region(0, 2, 0.0), Region(2, 2, 30.0)]
        merged = merge_adjacent(regions, tolerance=100.0, preserve_zero=True)
        assert len(merged) == 2
        merged = merge_adjacent(regions, tolerance=100.0)
        assert len(merged) == 1

    def test_preserve_zero_still_merges_zeros(self):
        merged = merge_adjacent(
            [Region(0, 2, 0.0), Region(2, 2, 0.0)],
            tolerance=100.0,
            preserve_zero=True,
        )
        assert merged == [Region(0, 4, 0.0)]

    def test_gradient_chain_merges_partially(self):
        # Weighted merging pulls the running value toward the mean, so a
        # smooth gradient does NOT collapse into a single region — only
        # pairwise-similar neighbours fold together.
        regions = [Region(i, 1, float(i)) for i in range(5)]
        merged = merge_adjacent(regions, tolerance=1.0)
        assert 1 < len(merged) < 5
        validate_partition(merged, 5)

    def test_equal_value_chain_merges_fully(self):
        regions = [Region(i, 1, 7.0) for i in range(5)]
        assert merge_adjacent(regions) == [Region(0, 5, 7.0)]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0, max_value=200, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_preserves_coverage(self, spans, tolerance):
        regions, start = [], 0
        for n, v in spans:
            regions.append(Region(start, n, v))
            start += n
        merged = merge_adjacent(regions, tolerance=tolerance)
        validate_partition(merged, start)
        assert sum(r.n_pages for r in merged) == start
        # Page-weighted total value is conserved under weighted merging.
        before = sum(r.value * r.n_pages for r in regions)
        after = sum(r.value * r.n_pages for r in merged)
        assert after == pytest.approx(before, rel=1e-9, abs=1e-6)


class TestValidatePartition:
    def test_accepts_exact_tiling(self):
        validate_partition([Region(0, 3), Region(3, 7)], 10)

    def test_rejects_gap(self):
        with pytest.raises(LayoutError):
            validate_partition([Region(0, 3), Region(4, 6)], 10)

    def test_rejects_overlap(self):
        with pytest.raises(LayoutError):
            validate_partition([Region(0, 5), Region(4, 6)], 10)

    def test_rejects_short_coverage(self):
        with pytest.raises(LayoutError):
            validate_partition([Region(0, 5)], 10)


class TestSplit:
    def test_split_in_middle(self):
        left, right = split_region(Region(10, 10, 2.0), 13)
        assert (left.start_page, left.n_pages) == (10, 3)
        assert (right.start_page, right.n_pages) == (13, 7)
        assert left.value == right.value == 2.0

    @pytest.mark.parametrize("at", [10, 20, 5, 25])
    def test_split_outside_rejected(self, at):
        with pytest.raises(AddressSpaceError):
            split_region(Region(10, 10), at)
