"""Tests for the access-trace data model."""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.errors import AddressSpaceError, ConfigError
from repro.trace.events import AccessEpoch, InvocationTrace

from conftest import make_trace


class TestAccessEpoch:
    def test_totals(self):
        e = AccessEpoch(0.1, np.array([1, 5]), np.array([10, 20]))
        assert e.total_accesses == 30
        assert e.touched_pages == 2

    def test_empty_epoch_allowed(self):
        e = AccessEpoch(0.1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert e.total_accesses == 0

    def test_unsorted_pages_rejected(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([5, 1]), np.array([1, 1]))

    def test_duplicate_pages_rejected(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([3, 3]), np.array([1, 1]))

    def test_zero_counts_rejected(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([3]), np.array([0]))

    def test_negative_page_rejected(self):
        with pytest.raises(AddressSpaceError):
            AccessEpoch(0.1, np.array([-1]), np.array([1]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([1, 2]), np.array([1]))

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([1]), np.array([1]), random_fraction=1.5)
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([1]), np.array([1]), store_fraction=-0.1)


class TestInvocationTrace:
    def test_histogram_sums_epochs(self):
        trace = make_trace(n_epochs=3, pages=(0, 1), counts=(5, 7))
        assert trace.histogram[0] == 15 and trace.histogram[1] == 21
        assert trace.total_accesses == 36

    def test_working_set(self):
        trace = make_trace(pages=(0, 2, 9), counts=(1, 1, 1))
        np.testing.assert_array_equal(trace.working_set, [0, 2, 9])
        assert trace.working_set_pages == 3
        assert trace.working_set_bytes == 3 * config.PAGE_SIZE

    def test_cpu_time_sums(self):
        trace = make_trace(cpu_time_s=0.03, n_epochs=3)
        assert trace.cpu_time_s == pytest.approx(0.03)

    def test_out_of_range_epoch_rejected(self):
        with pytest.raises(AddressSpaceError):
            make_trace(n_pages=10, pages=(0, 10), counts=(1, 1))

    def test_nominal_time(self):
        trace = make_trace(pages=(0,), counts=(1000,), cpu_time_s=0.01)
        t = trace.nominal_time_s(80e-9)
        assert t == pytest.approx(0.01 + 1000 * 80e-9)

    def test_first_touch_order(self):
        e1 = AccessEpoch(0.1, np.array([5, 9]), np.array([1, 1]))
        e2 = AccessEpoch(0.1, np.array([2, 5]), np.array([1, 1]))
        trace = InvocationTrace(n_pages=16, epochs=(e1, e2))
        np.testing.assert_array_equal(trace.first_touch_order(), [5, 9, 2])

    def test_mean_random_fraction_weighted(self):
        e1 = AccessEpoch(0.1, np.array([0]), np.array([30]), random_fraction=1.0)
        e2 = AccessEpoch(0.1, np.array([0]), np.array([10]), random_fraction=0.0)
        trace = InvocationTrace(n_pages=4, epochs=(e1, e2))
        assert trace.mean_random_fraction == pytest.approx(0.75)

    def test_mean_random_fraction_empty(self):
        e = AccessEpoch(0.1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        trace = InvocationTrace(n_pages=4, epochs=(e,))
        assert trace.mean_random_fraction == 0.0


# -- flat column layout --------------------------------------------------------


@pytest.fixture(params=["synthesized", "hand-built"])
def any_trace(request, tiny_function):
    """One trace from each constructor the package offers."""
    if request.param == "synthesized":
        return tiny_function.trace(2, 5)
    return make_trace(n_epochs=3, pages=(0, 1, 2, 100), counts=(5, 4, 3, 1))


class TestFlatLayout:
    def test_epochs_are_views_into_the_columns(self, any_trace):
        for epoch in any_trace.epochs:
            if epoch.pages.size:
                assert np.shares_memory(epoch.pages, any_trace.pages)
                assert np.shares_memory(epoch.counts, any_trace.counts)

    def test_epoch_ptr_matches_epoch_sizes(self, any_trace):
        ptr = any_trace.epoch_ptr
        assert ptr.dtype == np.int64
        assert ptr.size == len(any_trace.epochs) + 1
        assert ptr[0] == 0 and ptr[-1] == any_trace.pages.size
        np.testing.assert_array_equal(
            np.diff(ptr), [e.pages.size for e in any_trace.epochs]
        )

    def test_columns_equal_concatenated_epochs(self, any_trace):
        epochs = any_trace.epochs
        assert any_trace.pages.dtype == any_trace.counts.dtype == np.int64
        np.testing.assert_array_equal(
            any_trace.pages, np.concatenate([e.pages for e in epochs])
        )
        np.testing.assert_array_equal(
            any_trace.counts, np.concatenate([e.counts for e in epochs])
        )
        for epoch, lo, hi in zip(
            epochs, any_trace.epoch_ptr[:-1], any_trace.epoch_ptr[1:]
        ):
            np.testing.assert_array_equal(epoch.pages, any_trace.pages[lo:hi])
            np.testing.assert_array_equal(epoch.counts, any_trace.counts[lo:hi])

    def test_column_views_match_per_epoch_reference(self, any_trace):
        """total_accesses, histogram and first-touch order read the
        columns; they must equal the per-epoch definitions."""
        assert any_trace.total_accesses == sum(
            int(e.counts.sum()) for e in any_trace.epochs
        )
        hist = np.zeros(any_trace.n_pages, dtype=np.int64)
        seen: dict[int, None] = {}
        for epoch in any_trace.epochs:
            hist[epoch.pages] += epoch.counts
            seen.update(dict.fromkeys(epoch.pages.tolist()))
        assert any_trace.histogram.dtype == np.int64
        np.testing.assert_array_equal(any_trace.histogram, hist)
        np.testing.assert_array_equal(any_trace.first_touch_order(), list(seen))

    def test_empty_trace_has_empty_columns(self):
        trace = InvocationTrace(n_pages=4, epochs=())
        assert trace.pages.size == trace.counts.size == 0
        np.testing.assert_array_equal(trace.epoch_ptr, [0])
        assert trace.total_accesses == 0
        assert trace.first_touch_order().size == 0


class TestImmutability:
    def test_columns_and_epoch_views_reject_writes(self, any_trace):
        with pytest.raises(ValueError):
            any_trace.pages[0] = 1
        with pytest.raises(ValueError):
            any_trace.counts[0] = 1
        with pytest.raises(ValueError):
            any_trace.epoch_ptr[0] = 1
        epoch = next(e for e in any_trace.epochs if e.pages.size)
        with pytest.raises(ValueError):
            epoch.pages[0] = 1
        with pytest.raises(ValueError):
            epoch.counts[0] = 1

    def test_cached_trace_is_read_only(self, tiny_function):
        """A synthesized trace is shared through the trace cache by every
        system that replays the same seed, so no consumer may write it."""
        trace = tiny_function.trace(0, 3)
        assert tiny_function.trace(0, 3) is trace
        for epoch in trace.epochs:
            assert not epoch.pages.flags.writeable
            assert not epoch.counts.flags.writeable

    def test_source_arrays_are_not_aliased(self):
        pages = np.array([1, 5, 9], dtype=np.int64)
        counts = np.array([10, 20, 30], dtype=np.int64)
        trace = InvocationTrace(
            n_pages=16, epochs=(AccessEpoch(0.1, pages, counts),)
        )
        pages[:] = [2, 3, 4]
        counts[:] = 99
        np.testing.assert_array_equal(trace.epochs[0].pages, [1, 5, 9])
        np.testing.assert_array_equal(trace.epochs[0].counts, [10, 20, 30])
        assert trace.total_accesses == 60
