"""Tests for the unified access-pattern file."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilingError
from repro.profiling.damon import DamonSnapshot
from repro.profiling.unified import UnifiedAccessPattern, _absorb_slivers
from repro.regions import Region, validate_partition


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


def pattern(n_pages=1024, window=3, **kwargs) -> UnifiedAccessPattern:
    return UnifiedAccessPattern(
        n_pages, convergence_window=window, **kwargs
    )


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
        p = pattern(window=2, stability_tolerance=0.05)
        p.update(snap(1024, [(0, 100, 50.0)]))
        # 2% of pages change class: within the 5% tolerance.
        p.update(snap(1024, [(0, 120, 50.0)]))
        p.update(snap(1024, [(0, 120, 50.0)]))
        assert p.converged

    def test_size_mismatch_rejected(self):
        with pytest.raises(ProfilingError):
            pattern(1024).update(snap(512, [(0, 10, 5.0)]))


class TestAggregation:
    def test_max_is_monotone(self):
        p = pattern()
        p.update(snap(1024, [(0, 100, 50.0)]))
        high = p.page_max[:100].copy()
        p.update(snap(1024, [(0, 100, 10.0)]))
        np.testing.assert_array_equal(p.page_max[:100], high)

    def test_mean_decays_contamination(self):
        p = pattern(noise_floor=4.0)
        # One coarse-smeared observation, then clean zero observations.
        p.update(snap(1024, [(0, 1024, 6.0)]))
        for _ in range(9):
            p.update(snap(1024, [(0, 64, 6.0)]))
        # Tail mean is 0.6 < noise floor -> classified zero.
        assert not p.observed_mask()[512:].any()
        assert p.observed_mask()[:64].all()

    def test_zero_fraction(self):
        p = pattern()
        p.update(snap(1024, [(0, 256, 100.0)]))
        assert p.zero_fraction() == pytest.approx(0.75)

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
