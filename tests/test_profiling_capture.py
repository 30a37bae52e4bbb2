"""Tests for the userfaultfd and mincore working-set captures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.memsim.page_cache import HostPageCache
from repro.profiling.mincore import mincore_working_set
from repro.profiling.uffd import uffd_working_set

from conftest import make_trace


class TestUffd:
    def test_exact_first_touch_capture(self):
        trace = make_trace(pages=(0, 7, 99), counts=(1, 1000, 3))
        mask = uffd_working_set(trace)
        assert mask.sum() == 3
        assert mask[0] and mask[7] and mask[99]

    def test_dual_accessed_blindness(self):
        """A page touched once and one touched a thousand times are
        indistinguishable — the Section III-C criticism."""
        trace = make_trace(pages=(1, 2), counts=(1, 1000))
        mask = uffd_working_set(trace)
        assert mask[1] == mask[2]


class TestMincore:
    def test_reports_residency(self):
        cache = HostPageCache(100, readahead_pages=0)
        cache.fault_in(np.array([3, 4]))
        mask = mincore_working_set(cache)
        assert mask.sum() == 2

    def test_readahead_inflation(self):
        """mincore counts prefetched pages the guest never touched."""
        cache = HostPageCache(100, readahead_pages=8)
        cache.fault_in(np.array([10]))
        mincore_ws = mincore_working_set(cache).sum()
        true_ws = cache.demand_loaded_mask().sum()
        assert mincore_ws > true_ws
        assert true_ws == 1

    def test_requires_cache(self):
        with pytest.raises(ProfilingError):
            mincore_working_set(None)
