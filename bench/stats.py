"""Percentiles, quartiles and the set-vs-set verdict."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` %
    of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_change(base: float, new: float) -> float:
    """``(new - base) / |base|``.  From a base of 0 any change is an
    infinite share of it, so a zero baseline cannot hide a change."""
    if base:
        return (new - base) / abs(base)
    return 0.0 if new == base else math.copysign(math.inf, new - base)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return relative_change(median, median + (q3 - q1))


def verdict(a, b, *, better: str, bound: float) -> str:
    """Compare set ``b`` against set ``a`` for one metric.

    ``regressed`` when b's median is worse than a's by more than
    ``bound`` (a share of a's median; any worsening of a median of 0);
    ``unresolved`` when either side's own spread is wider than the bound,
    unless every value of b is better than every value of a; ``ok``
    otherwise.
    """
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    every_b_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if every_b_better:
        return "ok"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    return "regressed" if sign * relative_change(med_a, med_b) > bound else "ok"
