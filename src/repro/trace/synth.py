"""Synthetic access-histogram builders.

Function models (:mod:`repro.functions.suite`) describe their memory shape
declaratively as *bands* — "3 % of the working set takes 55 % of the
accesses" — and these helpers turn that into concrete per-page count arrays
with controlled noise.  Keeping the builders separate from the function
models makes the shapes unit-testable on their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import domains
from ..errors import ConfigError

__all__ = ["Band", "banded_histogram"]


@dataclass(frozen=True)
class Band:
    """A contiguous slice of the working set with a fixed access share.

    ``page_share`` and ``access_share`` are fractions of the working set's
    pages and of the invocation's total accesses respectively.  Bands are
    laid out in declaration order from the start of the working set, so the
    first band is the "hot head" (runtime/interpreter pages in the paper's
    workloads) and later bands form the colder tail.
    """

    page_share: float = domains.real(gt=0.0, le=1.0)
    access_share: float = domains.probability()

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)


def _normalize_to_total(weights: np.ndarray, total: int) -> np.ndarray:
    """Scale non-negative weights to integer counts summing to ``total``.

    Every page of the working set is *touched*, so whenever the budget
    allows (``total >= size``) each page receives at least one count; the
    remainder is spread by weight with largest-remainder rounding, keeping
    the sum exact.  With a budget smaller than the page count, only the
    heaviest ``total`` pages get a single count each.
    """
    if total < 0:
        raise ConfigError("total must be non-negative")
    if weights.size == 0:
        if total:
            raise ConfigError("cannot distribute accesses over zero pages")
        return np.zeros(0, dtype=np.int64)
    if total == 0:
        return np.zeros(weights.size, dtype=np.int64)
    wsum = float(weights.sum())
    if wsum <= 0:
        # Degenerate banding (all shares in an empty band): fall back to
        # a flat distribution rather than failing.
        weights = np.ones_like(weights)
        wsum = float(weights.size)
    if total < weights.size:
        counts = np.zeros(weights.size, dtype=np.int64)
        counts[_largest(weights, total)] = 1
        return counts
    counts = np.ones(weights.size, dtype=np.int64)
    remaining = total - weights.size
    # Normalise before scaling: dividing a subnormal wsum into a large
    # total would overflow to inf.
    raw = (weights / wsum) * remaining
    if not np.all(np.isfinite(raw)):
        raw = np.full(weights.size, remaining / weights.size)
    extra = np.floor(raw).astype(np.int64)
    counts += extra
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        counts[_largest(raw - extra, shortfall)] += 1
    return counts


def _largest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values (``k > 0``).

    The same set as ``np.argsort(values)[::-1][:k]``: a partition selects
    it whenever the ``k``-th largest value strictly exceeds every value
    left out; only a tie at that boundary (which ``argsort``'s own order
    breaks) or a NaN falls back to the full sort.
    """
    cut = values.size - k
    if cut <= 0:
        return np.arange(values.size)
    part = np.argpartition(values, cut)
    if values[part[:cut]].max() < values[part[cut]]:
        return part[cut:]
    return np.argsort(values)[::-1][:k]


def banded_histogram(
    ws_pages: int,
    total_accesses: int,
    bands: tuple[Band, ...] | list[Band],
    rng: np.random.Generator,
    *,
    noise: float = 0.05,
) -> np.ndarray:
    """Per-page counts over a working set of ``ws_pages`` pages.

    Each band's accesses are spread evenly over its pages, then perturbed by
    multiplicative lognormal noise of relative magnitude ``noise`` and
    re-normalised so the grand total is exact.  Band page shares must sum to
    (approximately) 1; access shares must sum to (approximately) 1.
    """
    if ws_pages <= 0:
        raise ConfigError("ws_pages must be positive")
    bands = tuple(bands)
    if not bands:
        raise ConfigError("at least one band required")
    page_sum = sum(b.page_share for b in bands)
    access_sum = sum(b.access_share for b in bands)
    if abs(page_sum - 1.0) > 1e-6:
        raise ConfigError(f"band page shares must sum to 1 (got {page_sum})")
    if abs(access_sum - 1.0) > 1e-6:
        raise ConfigError(f"band access shares must sum to 1 (got {access_sum})")
    if noise < 0:
        raise ConfigError("noise must be non-negative")

    weights = np.zeros(ws_pages, dtype=np.float64)
    start = 0
    for i, band in enumerate(bands):
        # Last band absorbs rounding slack so every page belongs to a band.
        if i == len(bands) - 1:
            end = ws_pages
        else:
            end = min(ws_pages, start + max(1, round(band.page_share * ws_pages)))
        n = end - start
        if n > 0:
            weights[start:end] = band.access_share / n
        start = end
        if start >= ws_pages:
            break
    if noise:
        weights *= rng.lognormal(mean=0.0, sigma=noise, size=ws_pages)
    return _normalize_to_total(weights, total_accesses)

