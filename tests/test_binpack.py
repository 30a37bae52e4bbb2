"""Tests for the constant-bin-number packing heuristic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.binpack import to_constant_bin_number


def bin_weights(bins, key=float):
    """Total weight per bin."""
    return [sum(float(key(item)) for item in b) for b in bins]


class TestPacking:
    def test_exact_bin_count(self):
        bins = to_constant_bin_number([1.0, 2.0, 3.0], 5)
        assert len(bins) == 5

    def test_all_items_placed_once(self):
        items = list(range(1, 20))
        bins = to_constant_bin_number(items, 4, key=float)
        flat = sorted(x for b in bins for x in b)
        assert flat == items

    def test_balance_quality(self):
        """Greedy LPT is within 4/3 of the optimal makespan; for many
        similar items the bins come out nearly equal."""
        items = [10.0] * 40
        weights = bin_weights(to_constant_bin_number(items, 4))
        assert max(weights) == min(weights) == 100.0

    def test_heaviest_first(self):
        # A single dominant item ends up alone in its bin.
        items = [100.0, 1.0, 1.0, 1.0]
        bins = to_constant_bin_number(items, 2)
        weights = bin_weights(bins)
        assert sorted(weights) == [3.0, 100.0]

    def test_key_function(self):
        items = [{"w": 5}, {"w": 1}, {"w": 4}]
        bins = to_constant_bin_number(items, 2, key=lambda d: d["w"])
        weights = bin_weights(bins, key=lambda d: d["w"])
        assert sorted(weights) == [5.0, 5.0]

    def test_zero_weight_items_spread(self):
        bins = to_constant_bin_number([0.0] * 6, 3)
        assert all(len(b) == 2 for b in bins)

    def test_fewer_items_than_bins(self):
        bins = to_constant_bin_number([1.0], 4)
        assert sum(len(b) for b in bins) == 1

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            to_constant_bin_number([1.0], 0)
        with pytest.raises(AnalysisError):
            to_constant_bin_number([-1.0], 2)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_packing_invariants(self, weights, n_bins):
        bins = to_constant_bin_number(weights, n_bins)
        assert len(bins) == n_bins
        # Conservation: every item lands in exactly one bin.
        assert sorted(x for b in bins for x in b) == sorted(weights)
        # LPT guarantee: max bin <= total/n + max item.
        totals = bin_weights(bins)
        assert max(totals) <= sum(weights) / n_bins + max(weights) + 1e-9

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=30,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mostly_equal_bins(self, weights):
        """The paper's 'mostly equally accessed bins': with many items,
        no bin is more than one max-item heavier than the lightest."""
        bins = to_constant_bin_number(weights, 10)
        totals = bin_weights(bins)
        assert max(totals) - min(totals) <= max(weights) + 1e-9
