"""Tests for the tiered memory-layout file."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.memsim.tiers import Tier
from repro.vm.layout import LayoutEntry, MemoryLayout


def placement_of(*spans):
    """Build a dense placement from (tier, n_pages) spans."""
    return np.concatenate(
        [np.full(n, int(t), dtype=np.uint8) for t, n in spans]
    )


class TestLayoutEntry:
    def test_validation(self):
        # Any non-negative tier id is a legal chain position now; only
        # negatives (and non-ints) are malformed.
        with pytest.raises(LayoutError):
            LayoutEntry(tier=-1, file_offset_page=0, guest_start_page=0, n_pages=1)
        with pytest.raises(LayoutError):
            LayoutEntry(tier=0, file_offset_page=-1, guest_start_page=0, n_pages=1)
        with pytest.raises(LayoutError):
            LayoutEntry(tier=0, file_offset_page=0, guest_start_page=0, n_pages=0)


class TestFromPlacement:
    def test_merges_same_tier_runs(self):
        placement = placement_of((Tier.FAST, 10), (Tier.SLOW, 20), (Tier.FAST, 5))
        layout = MemoryLayout.from_placement(placement)
        assert layout.n_mappings == 3
        assert layout.pages_in_tier(Tier.FAST) == 15
        assert layout.pages_in_tier(Tier.SLOW) == 20
        assert layout.slow_fraction == pytest.approx(20 / 35)

    def test_file_offsets_serial_per_tier(self):
        placement = placement_of(
            (Tier.FAST, 4), (Tier.SLOW, 6), (Tier.FAST, 2), (Tier.SLOW, 3)
        )
        layout = MemoryLayout.from_placement(placement)
        fast = [e for e in layout.entries if e.tier == int(Tier.FAST)]
        slow = [e for e in layout.entries if e.tier == int(Tier.SLOW)]
        assert [e.file_offset_page for e in fast] == [0, 4]
        assert [e.file_offset_page for e in slow] == [0, 6]
        assert layout.pages_in_tier(Tier.FAST) == 6
        assert layout.pages_in_tier(Tier.SLOW) == 9

    def test_placement_round_trip(self):
        placement = placement_of((Tier.SLOW, 7), (Tier.FAST, 1), (Tier.SLOW, 8))
        layout = MemoryLayout.from_placement(placement)
        np.testing.assert_array_equal(layout.placement(), placement)

    def test_single_tier_is_one_mapping(self):
        layout = MemoryLayout.from_placement(placement_of((Tier.SLOW, 100)))
        assert layout.n_mappings == 1

    def test_empty_rejected(self):
        with pytest.raises(LayoutError):
            MemoryLayout.from_placement(np.array([], dtype=np.uint8))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1]), st.integers(min_value=1, max_value=50)
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, spans):
        placement = np.concatenate(
            [np.full(n, t, dtype=np.uint8) for t, n in spans]
        )
        layout = MemoryLayout.from_placement(placement)
        np.testing.assert_array_equal(layout.placement(), placement)
        # Mappings never exceed the number of spans (merging can only help).
        assert layout.n_mappings <= len(spans)
        # Tier page totals are conserved.
        assert layout.pages_in_tier(Tier.SLOW) == int(placement.sum())


class TestSerialization:
    def test_parse_time_scales_with_mappings(self):
        small = MemoryLayout.from_placement(placement_of((Tier.FAST, 10)))
        big = MemoryLayout.from_placement(
            placement_of(*[(Tier.FAST, 1), (Tier.SLOW, 1)] * 20)
        )
        assert big.parse_time_s() > small.parse_time_s()


class TestValidation:
    def test_gap_rejected(self):
        with pytest.raises(LayoutError):
            MemoryLayout(
                10,
                [
                    LayoutEntry(0, 0, 0, 4),
                    LayoutEntry(0, 4, 6, 4),  # pages 4-5 uncovered
                ],
            )

    def test_overlap_rejected(self):
        with pytest.raises(LayoutError):
            MemoryLayout(
                10,
                [LayoutEntry(0, 0, 0, 6), LayoutEntry(0, 6, 4, 6)],
            )

    def test_file_offset_gap_rejected(self):
        with pytest.raises(LayoutError):
            MemoryLayout(
                10,
                [
                    LayoutEntry(0, 0, 0, 5),
                    LayoutEntry(0, 7, 5, 5),  # file offset should be 5
                ],
            )
