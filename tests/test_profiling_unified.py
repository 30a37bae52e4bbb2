"""Tests for the unified access-pattern file."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilingError
from repro.profiling.damon import DamonSnapshot
from repro.profiling.unified import NOISE_FLOOR, UnifiedAccessPattern, _absorb_slivers
from repro.regions import Region, validate_partition

from unified_oracle import PerPagePattern


def snap(n_pages, spans):
    """Build a DamonSnapshot from (start, n, value) spans + zero filler."""
    regions = []
    cursor = 0
    for start, n, value in spans:
        if start > cursor:
            regions.append(Region(cursor, start - cursor, 0.0))
        regions.append(Region(start, n, value))
        cursor = start + n
    if cursor < n_pages:
        regions.append(Region(cursor, n_pages - cursor, 0.0))
    return DamonSnapshot(
        n_pages=n_pages,
        bounds=np.array([0] + [r.end_page for r in regions]),
        means=np.array([r.value for r in regions]),
        samples=1000,
    )


def pattern(n_pages=1024, window=3) -> UnifiedAccessPattern:
    return UnifiedAccessPattern(n_pages, convergence_window=window)


def observed(p: UnifiedAccessPattern) -> np.ndarray:
    """Pages the pattern classifies as accessed (non-zero quantised mean)."""
    return p._quantise_round(p.page_values()) > 0


def page_max(p: UnifiedAccessPattern) -> np.ndarray:
    """The cumulative maximum expanded from segments to pages."""
    return np.repeat(p._max, np.diff(p._bounds))


class TestUpdate:
    def test_first_update_counts_as_change(self):
        p = pattern()
        assert p.update(snap(1024, [(0, 100, 50.0)])) is True
        assert p.invocations == 1

    def test_identical_updates_stabilise(self):
        p = pattern(window=3)
        s = snap(1024, [(0, 100, 50.0)])
        p.update(s)
        for _ in range(3):
            assert p.update(s) is False
        assert p.converged

    def test_new_pattern_resets_stability(self):
        p = pattern(window=3)
        s1 = snap(1024, [(0, 100, 50.0)])
        for _ in range(3):
            p.update(s1)
        p.update(snap(1024, [(0, 500, 900.0)]))
        assert p.stable_invocations == 0
        assert not p.converged

    def test_stability_tolerance_ignores_sliver_churn(self):
        p = pattern(window=2)
        p.update(snap(1024, [(0, 100, 50.0)]))
        # 10 of 1024 pages change class: within the 1% tolerance.
        p.update(snap(1024, [(0, 110, 50.0)]))
        p.update(snap(1024, [(0, 110, 50.0)]))
        assert p.converged

    def test_size_mismatch_rejected(self):
        with pytest.raises(ProfilingError):
            pattern(1024).update(snap(512, [(0, 10, 5.0)]))

    @pytest.mark.parametrize("value", [2.5, True, math.nan, math.inf])
    def test_non_integer_page_count_rejected(self, value):
        with pytest.raises(ProfilingError, match="n_pages must be an integer"):
            UnifiedAccessPattern(value)

    @pytest.mark.parametrize("value", [2.5, True, math.nan, math.inf])
    def test_non_integer_convergence_window_rejected(self, value):
        with pytest.raises(ProfilingError, match="convergence_window must be an integer"):
            UnifiedAccessPattern(1024, convergence_window=value)


class TestAggregation:
    def test_max_is_monotone(self):
        p = pattern()
        p.update(snap(1024, [(0, 100, 50.0)]))
        high = page_max(p)[:100]
        p.update(snap(1024, [(0, 100, 10.0)]))
        np.testing.assert_array_equal(page_max(p)[:100], high)

    def test_mean_decays_contamination(self):
        p = pattern()
        # One coarse-smeared observation, then clean zero observations.
        p.update(snap(1024, [(0, 1024, 6.0)]))
        for _ in range(9):
            p.update(snap(1024, [(0, 64, 6.0)]))
        # Tail mean is 0.6 < noise floor -> classified zero.
        assert not observed(p)[512:].any()
        assert observed(p)[:64].all()

    def test_zero_fraction(self):
        p = pattern()
        p.update(snap(1024, [(0, 256, 100.0)]))
        assert 1.0 - observed(p).mean() == pytest.approx(0.75)

    def test_queries_require_updates(self):
        with pytest.raises(ProfilingError):
            pattern().page_values()
        with pytest.raises(ProfilingError):
            pattern().regions()


class TestRegions:
    def test_regions_partition_guest(self):
        p = pattern()
        p.update(snap(1024, [(0, 100, 200.0), (500, 100, 30.0)]))
        regions = p.regions()
        validate_partition(regions, 1024)

    def test_zero_regions_have_zero_value(self):
        p = pattern()
        p.update(snap(1024, [(100, 50, 400.0)]))
        regions = p.regions()
        assert any(r.value == 0 for r in regions)
        for r in regions:
            if r.start_page >= 300:
                assert r.value == 0.0

    def test_min_region_absorbs_slivers(self):
        p = pattern()
        # A 2-page hot sliver between two cold runs.
        p.update(snap(1024, [(0, 100, 16.0), (100, 2, 4000.0), (102, 100, 16.0)]))
        regions = p.regions(min_region_pages=4)
        assert all(r.n_pages >= 4 or r.end_page == 1024 for r in regions)

    def test_merge_tolerance_reduces_regions(self):
        p = pattern()
        p.update(
            snap(
                1024,
                [(0, 100, 100.0), (100, 100, 160.0), (200, 100, 900.0)],
            )
        )
        fine = p.regions(merge_tolerance=0.0)
        coarse = p.regions(merge_tolerance=100.0)
        assert len(coarse) <= len(fine)

    def test_merge_preserves_zero_boundary(self):
        p = pattern()
        p.update(snap(1024, [(0, 100, 30.0)]))
        regions = p.regions(merge_tolerance=1000.0)
        zeros = [r for r in regions if r.value == 0]
        assert zeros, "zero region must survive aggressive merging"


def _absorb_slivers_rescan(regions: list[Region], min_pages: int) -> list[Region]:
    """``_absorb_slivers`` as it was: rescan from region 0 after each merge."""
    out = list(regions)
    changed = True
    while changed and len(out) > 1:
        changed = False
        for i, region in enumerate(out):
            if region.n_pages >= min_pages:
                continue
            left = out[i - 1] if i > 0 else None
            right = out[i + 1] if i + 1 < len(out) else None
            if left is None and right is None:
                break
            if right is None or (
                left is not None
                and abs(left.value - region.value) <= abs(right.value - region.value)
            ):
                total = left.n_pages + region.n_pages
                value = (left.value * left.n_pages + region.value * region.n_pages) / total
                out[i - 1] = Region(left.start_page, total, value)
                del out[i]
            else:
                total = right.n_pages + region.n_pages
                value = (right.value * right.n_pages + region.value * region.n_pages) / total
                out[i] = Region(region.start_page, total, value)
                del out[i + 1]
            changed = True
            break
    return out


@settings(max_examples=500, deadline=None)
@given(
    spans=st.lists(
        st.tuples(
            st.integers(1, 12),
            st.sampled_from([0.0, 1.0, 2.5, 16.0]) | st.floats(0, 1e4),
        ),
        min_size=1,
        max_size=60,
    ),
    min_pages=st.integers(1, 10),
)
def test_absorb_slivers_matches_rescan(spans, min_pages):
    regions, start = [], 0
    for n_pages, value in spans:
        regions.append(Region(start, n_pages, value))
        start += n_pages
    assert _absorb_slivers(regions, min_pages) == _absorb_slivers_rescan(
        regions, min_pages
    )


class TestSegmentStorage:
    def test_segments_are_the_union_of_folded_boundaries(self):
        p = pattern()
        p.update(snap(1024, [(0, 100, 50.0)]))
        p.update(snap(1024, [(50, 100, 50.0)]))
        np.testing.assert_array_equal(p._bounds, [0, 50, 100, 150, 1024])

    def test_pattern_holds_no_page_long_array(self):
        # A DAMON file has at most 1,000 regions, so 25 of them cut a
        # 262,144-page guest into at most ~25k segments: well under 1 MB,
        # where four per-page arrays would hold 6.8 MB.
        n_pages = 262_144
        rng = np.random.default_rng(3)
        p = UnifiedAccessPattern(n_pages)
        for _ in range(25):
            cuts = np.sort(rng.choice(np.arange(1, n_pages), 999, replace=False))
            p.update(
                DamonSnapshot(
                    n_pages=n_pages,
                    bounds=np.concatenate([[0], cuts, [n_pages]]),
                    means=rng.choice([0.0, 3.0, 50.0, 900.0], size=1000),
                    samples=1000,
                )
            )
        held = sum(v.nbytes for v in vars(p).values() if isinstance(v, np.ndarray))
        assert held < 1_000_000


def _around(x: float) -> list[float]:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


FLIP_VALUES = sorted(
    {0.0, *_around(NOISE_FLOOR), *(v for k in range(1, 14) for v in _around(2.0**k - 1))}
)
"""Means at which a quantised bucket or the noise-floor test flips."""


@st.composite
def damon_files(draw, n_pages: int) -> DamonSnapshot:
    n_regions = draw(st.integers(1, min(64, n_pages)))
    cuts = draw(
        st.sets(
            st.integers(1, n_pages - 1),
            min_size=n_regions - 1,
            max_size=n_regions - 1,
        )
        if n_pages > 1
        else st.just(set())
    )
    means = draw(
        st.lists(
            st.sampled_from(FLIP_VALUES) | st.floats(0, 1e4),
            min_size=n_regions,
            max_size=n_regions,
        )
    )
    return DamonSnapshot(
        n_pages=n_pages,
        bounds=np.array([0, *sorted(cuts), n_pages]),
        means=np.array(means),
        samples=1000,
    )


def _bits(regions: list[Region]) -> list[tuple[int, int, str]]:
    return [(r.start_page, r.n_pages, float.hex(r.value)) for r in regions]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_pages=st.integers(1, 4096), window=st.integers(1, 5))
def test_segments_match_the_per_page_pattern(data, n_pages, window):
    segments = UnifiedAccessPattern(n_pages, convergence_window=window)
    pages = PerPagePattern(n_pages, convergence_window=window)
    for _ in range(data.draw(st.integers(1, 10))):
        damon_file = data.draw(damon_files(n_pages))
        assert segments.update(damon_file) == pages.update(damon_file)
        assert segments.converged == pages.converged
        assert segments.stable_invocations == pages.stable_invocations
    assert segments._bounds.size <= n_pages + 1
    np.testing.assert_array_equal(
        segments.page_values().view(np.int64), pages.page_values().view(np.int64)
    )
    for merge_tolerance, min_region_pages in ((0.0, 1), (0.0, 4), (50.0, 1), (400.0, 8)):
        kwargs = dict(merge_tolerance=merge_tolerance, min_region_pages=min_region_pages)
        assert _bits(segments.regions(**kwargs)) == _bits(pages.regions(**kwargs))
