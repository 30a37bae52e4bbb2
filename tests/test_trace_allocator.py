"""Tests for the guest allocation model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError, ConfigError
from repro.trace.allocator import GuestAllocator


class TestPlace:
    def test_injective(self, rng):
        alloc = GuestAllocator(
            10_000, base_page=100, jitter_pages=32, scatter_fraction=0.05
        )
        frames = alloc.place(2000, rng)
        assert frames.size == 2000
        assert np.unique(frames).size == 2000
        assert frames.min() >= 0 and frames.max() < 10_000

    def test_no_jitter_no_scatter_is_contiguous(self, rng):
        alloc = GuestAllocator(1000, base_page=10)
        frames = alloc.place(100, rng)
        np.testing.assert_array_equal(frames, np.arange(10, 110))

    def test_jitter_moves_base(self):
        alloc = GuestAllocator(10_000, base_page=500, jitter_pages=64)
        bases = {
            int(alloc.place(100, np.random.default_rng(s))[0])
            for s in range(30)
        }
        assert len(bases) > 5
        assert all(436 <= b <= 564 for b in bases)

    def test_scatter_stays_near_block(self, rng):
        alloc = GuestAllocator(
            100_000, base_page=1000, jitter_pages=16, scatter_fraction=0.1
        )
        ws = 5000
        frames = alloc.place(ws, rng)
        slack = max(16, ws // 10)
        assert frames.min() >= 1000 - 16 - slack
        assert frames.max() <= 1000 + 16 + ws + slack

    def test_working_set_too_big_rejected(self, rng):
        alloc = GuestAllocator(100)
        with pytest.raises(AddressSpaceError):
            alloc.place(101, rng)

    def test_exact_fit(self, rng):
        alloc = GuestAllocator(100, base_page=50, jitter_pages=10)
        frames = alloc.place(100, rng)
        np.testing.assert_array_equal(np.sort(frames), np.arange(100))

    def test_invalid_construction(self):
        with pytest.raises(AddressSpaceError):
            GuestAllocator(0)
        with pytest.raises(AddressSpaceError):
            GuestAllocator(10, base_page=10)
        with pytest.raises(ConfigError):
            GuestAllocator(10, scatter_fraction=1.0)
        with pytest.raises(ConfigError):
            GuestAllocator(10, jitter_pages=-1)

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"n_pages": 100.5}, AddressSpaceError),
            ({"n_pages": True}, AddressSpaceError),
            ({"n_pages": 100, "base_page": 1.5}, AddressSpaceError),
            ({"n_pages": 100, "base_page": float("nan")}, AddressSpaceError),
            ({"n_pages": 100, "jitter_pages": 1.5}, ConfigError),
            ({"n_pages": 100, "jitter_pages": float("nan")}, ConfigError),
        ],
    )
    def test_non_integer_sizes_rejected(self, kwargs, error):
        with pytest.raises(error):
            GuestAllocator(**kwargs)

    @given(
        n_pages=st.integers(min_value=10, max_value=5000),
        ws_frac=st.floats(min_value=0.01, max_value=1.0),
        scatter=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_injective_and_in_range(self, n_pages, ws_frac, scatter, seed):
        ws = max(1, int(ws_frac * n_pages))
        alloc = GuestAllocator(
            n_pages,
            base_page=n_pages // 20,
            jitter_pages=n_pages // 50,
            scatter_fraction=scatter,
        )
        frames = alloc.place(ws, np.random.default_rng(seed))
        assert np.unique(frames).size == ws
        assert frames.min() >= 0 and frames.max() < n_pages


class TestRemapHistogram:
    def test_sorted_sparse_output(self, rng):
        alloc = GuestAllocator(1000, base_page=10, jitter_pages=4)
        hist = np.array([5, 0, 3, 0, 7])
        pages, counts = alloc.remap_histogram(hist, rng)
        assert pages.size == 3  # zero-count pages dropped
        assert np.all(np.diff(pages) > 0)
        assert counts.sum() == 15

    def test_counts_preserved(self, rng):
        alloc = GuestAllocator(
            5000, base_page=100, jitter_pages=32, scatter_fraction=0.1
        )
        hist = rng.integers(0, 50, size=500)
        pages, counts = alloc.remap_histogram(hist, rng)
        assert counts.sum() == hist.sum()

    def test_non_1d_rejected(self, rng):
        alloc = GuestAllocator(100)
        with pytest.raises(ConfigError):
            alloc.remap_histogram(np.zeros((2, 2)), rng)
