"""Tests for synthetic histogram builders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.trace.synth import (
    Band,
    _largest,
    banded_histogram,
)


class TestBand:
    def test_valid(self):
        Band(0.5, 0.5)
        Band(1.0, 0.0)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            Band(0.0, 0.5)
        with pytest.raises(ConfigError):
            Band(1.5, 0.5)
        with pytest.raises(ConfigError):
            Band(0.5, 1.5)


class TestBandedHistogram:
    def test_exact_total(self, rng):
        hist = banded_histogram(
            1000, 12345, (Band(0.1, 0.7), Band(0.9, 0.3)), rng
        )
        assert hist.sum() == 12345
        assert hist.size == 1000

    def test_band_shares_respected(self, rng):
        hist = banded_histogram(
            1000, 100_000, (Band(0.1, 0.7), Band(0.9, 0.3)), rng, noise=0.0
        )
        head = hist[:100].sum()
        assert head == pytest.approx(70_000, rel=0.02)

    def test_hot_head_denser_than_tail(self, rng):
        hist = banded_histogram(
            1000, 100_000, (Band(0.1, 0.7), Band(0.9, 0.3)), rng
        )
        assert hist[:100].mean() > 10 * hist[100:].mean()

    def test_share_sums_validated(self, rng):
        with pytest.raises(ConfigError):
            banded_histogram(100, 10, (Band(0.5, 0.5),), rng)
        with pytest.raises(ConfigError):
            banded_histogram(
                100, 10, (Band(0.5, 0.9), Band(0.5, 0.2)), rng
            )

    def test_zero_total_allowed(self, rng):
        hist = banded_histogram(100, 0, (Band(1.0, 1.0),), rng)
        assert hist.sum() == 0

    @given(
        ws=st.integers(min_value=1, max_value=5000),
        total=st.integers(min_value=0, max_value=10**6),
        head=st.floats(min_value=0.05, max_value=0.95),
        acc=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_always_exact(self, ws, total, head, acc, seed):
        rng = np.random.default_rng(seed)
        bands = (Band(head, acc), Band(1.0 - head, 1.0 - acc))
        hist = banded_histogram(ws, total, bands, rng)
        assert hist.sum() == total
        assert (hist >= 0).all()


def _argsort_normalize(weights: np.ndarray, total: int) -> np.ndarray:
    """``_normalize_to_total`` as it was with full ``argsort`` top-k."""
    if total == 0:
        return np.zeros(weights.size, dtype=np.int64)
    wsum = float(weights.sum())
    if wsum <= 0:
        weights = np.ones_like(weights)
        wsum = float(weights.size)
    if total < weights.size:
        counts = np.zeros(weights.size, dtype=np.int64)
        counts[np.argsort(weights)[::-1][:total]] = 1
        return counts
    counts = np.ones(weights.size, dtype=np.int64)
    remaining = total - weights.size
    raw = (weights / wsum) * remaining
    if not np.all(np.isfinite(raw)):
        raw = np.full(weights.size, remaining / weights.size)
    extra = np.floor(raw).astype(np.int64)
    counts += extra
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        remainders = raw - extra
        counts[np.argsort(remainders)[::-1][:shortfall]] += 1
    return counts


class TestTopK:
    """The partition top-k selects exactly the pages ``argsort`` did."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]) | st.floats(0, 10),
            min_size=1,
            max_size=200,
        ),
        data=st.data(),
    )
    def test_largest_matches_argsort(self, values, data):
        values = np.array(values)
        k = data.draw(st.integers(1, values.size))
        np.testing.assert_array_equal(
            np.sort(_largest(values, k)), np.sort(np.argsort(values)[::-1][:k])
        )

    @settings(max_examples=200, deadline=None)
    @given(
        ws=st.integers(1, 400),
        total=st.integers(0, 5000),
        shares=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        noise=st.sampled_from([0.0, 0.0, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_match_argsort_normalisation(self, ws, total, shares, noise, seed):
        # noise=0 spreads each band evenly: equal weights, tied remainders.
        bands = tuple(Band(s / sum(shares), s / sum(shares)) for s in shares)
        hist = banded_histogram(ws, total, bands, np.random.default_rng(seed), noise=noise)
        weights = np.zeros(ws)
        start = 0
        for i, band in enumerate(bands):
            end = ws if i == len(bands) - 1 else min(ws, start + max(1, round(band.page_share * ws)))
            if end > start:
                weights[start:end] = band.access_share / (end - start)
            start = end
            if start >= ws:
                break
        if noise:
            weights *= np.random.default_rng(seed).lognormal(0.0, noise, size=ws)
        np.testing.assert_array_equal(hist, _argsort_normalize(weights, total))
