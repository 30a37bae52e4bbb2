import math
import statistics

import pytest

import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, q, beyond",
    [(1000, 99, 10), (200, 99, 2), (125, 99, 1), (125, 50, 62), (20, 99, 0), (1, 50, 0)],
)
def test_samples_beyond_the_percentile(n, q, beyond):
    assert stats.samples_beyond(n, q) == beyond
    values = list(range(n))
    p = stats.percentile(values, q)
    assert sum(1 for v in values if v > p) == beyond


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_verdict():
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert stats.verdict(a, a, better="lower", bound=0.10) == "ok"
    slower = [v * 1.3 for v in a]
    assert stats.verdict(a, slower, better="lower", bound=0.10) == "regressed"
    assert stats.verdict(a, slower, better="higher", bound=0.10) == "ok"
    noisy = [0.5, 1.0, 1.5, 2.0, 2.5]
    assert stats.verdict(a, noisy, better="lower", bound=0.10) == "unresolved"
    # Identical deterministic values pass a zero bound; any change fails it.
    assert stats.verdict([2.0] * 3, [2.0] * 3, better="lower", bound=0.0) == "ok"
    assert stats.verdict([2.0] * 3, [2.1] * 3, better="lower", bound=0.0) == "regressed"


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        ([0.0] * 3, [0.1] * 3, "lower", 0.0, "regressed"),
        ([0.0] * 3, [0.1] * 3, "lower", 0.25, "regressed"),
        ([0.0] * 3, [0.0] * 3, "lower", 0.0, "ok"),
        ([0.1] * 3, [0.0] * 3, "lower", 0.0, "ok"),
        ([0.0] * 3, [-0.1] * 3, "higher", 0.0, "regressed"),
        ([0.0, 0.0, 0.2], [0.0] * 3, "lower", 0.0, "unresolved"),
    ],
)
def test_verdict_from_a_zero_baseline(a, b, better, bound, expected):
    # error_rate is 0 on most workloads: a rise from 0 must not read "ok".
    assert stats.verdict(a, b, better=better, bound=bound) == expected


def test_relative_change():
    assert stats.relative_change(2.0, 2.5) == 0.25
    assert stats.relative_change(-2.0, -1.0) == 0.5
    assert stats.relative_change(0.0, 0.0) == 0.0
    assert stats.relative_change(0.0, 1.0) == math.inf
    assert stats.relative_change(0.0, -1.0) == -math.inf
