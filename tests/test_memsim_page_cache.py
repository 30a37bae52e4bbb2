"""Tests for the host page-cache model (readahead, mincore inflation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError
from repro.memsim.page_cache import HostPageCache


def prefetched_pages(cache: HostPageCache) -> int:
    """Resident pages that readahead alone populated."""
    return int((cache.resident_mask() & ~cache.demand_loaded_mask()).sum())


class TestFaultIn:
    def test_first_fault_misses(self):
        cache = HostPageCache(100, readahead_pages=0)
        misses = cache.fault_in(np.array([5, 6, 7]))
        assert misses == 3
        assert cache.resident_mask().sum() == 3

    def test_second_fault_hits(self):
        cache = HostPageCache(100, readahead_pages=0)
        cache.fault_in(np.array([5, 6, 7]))
        assert cache.fault_in(np.array([5, 6, 7])) == 0

    def test_readahead_marks_prefetched(self):
        cache = HostPageCache(100, readahead_pages=4)
        misses = cache.fault_in(np.array([10]))
        assert misses == 1
        # Pages 11..14 prefetched.
        assert cache.resident_mask().sum() == 5
        assert prefetched_pages(cache) == 4
        np.testing.assert_array_equal(
            cache.resident_mask()[[10, 11, 14, 15]],
            [True, True, True, False],
        )

    def test_prefetched_page_hits_without_miss(self):
        cache = HostPageCache(100, readahead_pages=4)
        cache.fault_in(np.array([10]))
        assert cache.fault_in(np.array([12])) == 0
        # Demand-faulting clears the prefetched flag (it is a real touch).
        assert prefetched_pages(cache) == 3

    def test_readahead_clipped_at_end(self):
        cache = HostPageCache(10, readahead_pages=8)
        cache.fault_in(np.array([8]))
        assert cache.resident_mask().sum() == 2  # 8 + readahead 9 only

    def test_mincore_inflation_vs_demand_mask(self):
        cache = HostPageCache(64, readahead_pages=8)
        cache.fault_in(np.array([0]))
        resident = cache.resident_mask()
        demand = cache.demand_loaded_mask()
        assert resident.sum() == 9  # what mincore() reports
        assert demand.sum() == 1  # what was actually touched

    def test_duplicate_pages_counted_once(self):
        cache = HostPageCache(100, readahead_pages=0)
        assert cache.fault_in(np.array([3, 3, 3])) == 1

    def test_out_of_range_rejected(self):
        cache = HostPageCache(10)
        with pytest.raises(AddressSpaceError):
            cache.fault_in(np.array([10]))
        with pytest.raises(AddressSpaceError):
            cache.fault_in(np.array([-1]))


class TestProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=199), min_size=1, max_size=100
        ),
        st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_faulted_pages_always_resident_afterwards(self, pages, ra):
        cache = HostPageCache(200, readahead_pages=ra)
        arr = np.asarray(pages, dtype=np.int64)
        cache.fault_in(arr)
        assert cache.resident_mask()[arr].all()
        # Demand mask is a subset of residency.
        assert not np.any(cache.demand_loaded_mask() & ~cache.resident_mask())

    @given(
        st.lists(
            st.integers(min_value=0, max_value=199), min_size=1, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_misses_bounded_by_unique_pages(self, pages):
        cache = HostPageCache(200, readahead_pages=8)
        total = sum(
            cache.fault_in(np.asarray([p], dtype=np.int64)) for p in pages
        )
        assert total <= len(set(pages))
