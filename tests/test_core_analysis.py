"""Tests for the profiling analysis (Section V-C)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import ProfilingAnalyzer
from repro.errors import AnalysisError
from repro.memsim.tiers import Tier
from repro.profiling.damon import DamonProfiler
from repro.profiling.unified import UnifiedAccessPattern
from repro.vm.vmm import VMM


def profiled_pattern(function, invocations=8, seed=3):
    """Drive DAMON + unified pattern over a few invocations."""
    vmm = VMM()
    damon = DamonProfiler(function.n_pages, rng=np.random.default_rng(seed))
    pattern = UnifiedAccessPattern(function.n_pages, convergence_window=3)
    for i in range(invocations):
        boot = vmm.boot_and_run(function, function.n_inputs - 1, seed + i)
        snap = damon.profile(boot.execution.epoch_records)
        if i == 0:
            continue
        pattern.update(snap)
    return pattern


@pytest.fixture
def analyzed(tiny_function):
    pattern = profiled_pattern(tiny_function)
    analyzer = ProfilingAnalyzer()
    trace = tiny_function.trace(3, 999)
    return analyzer.analyze(pattern, trace)


class TestAnalysisResult:
    def test_placement_covers_guest(self, analyzed, tiny_function):
        assert analyzed.placement.shape == (tiny_function.n_pages,)
        assert set(np.unique(analyzed.placement)) <= {0, 1}

    def test_cold_function_mostly_offloaded(self, analyzed):
        """The tiny function's cold tail + untouched pages dominate."""
        assert analyzed.slow_fraction > 0.80

    def test_cost_between_optimal_and_dram(self, analyzed):
        assert 0.4 <= analyzed.cost <= 1.0

    def test_expected_slowdown_sane(self, analyzed):
        assert 1.0 <= analyzed.expected_slowdown < 1.5

    def test_bins_cover_live_regions(self, analyzed):
        total_bin_pages = sum(b.n_pages for b in analyzed.bins)
        slow_from_zero = analyzed.zero_pages
        assert total_bin_pages + slow_from_zero <= analyzed.n_pages
        assert len(analyzed.bins) <= 10

    def test_selected_bins_have_cost_below_one(self, analyzed):
        for b in analyzed.selected_bins:
            assert b.solo_cost < 1.0

    def test_unselected_bins_cost_at_least_one(self, analyzed):
        for b in analyzed.bins:
            if not b.selected:
                assert b.solo_cost >= 1.0

    def test_curve_is_cumulative(self, analyzed):
        fracs = [p.slow_fraction for p in analyzed.curve]
        assert fracs == sorted(fracs)
        sds = [p.slowdown for p in analyzed.curve]
        assert all(b >= a - 1e-9 for a, b in zip(sds, sds[1:]))

    def test_final_slow_fraction_matches_placement(self, analyzed):
        frac = (analyzed.placement == int(Tier.SLOW)).mean()
        assert frac == pytest.approx(analyzed.slow_fraction)


class TestMemoryIntensiveFunction:
    def test_intense_function_keeps_hot_memory_fast(
        self, memory_intensive_function
    ):
        """A uniformly hot working set resists offloading (pagerank's
        behaviour in Table II)."""
        pattern = profiled_pattern(memory_intensive_function)
        analyzer = ProfilingAnalyzer()
        trace = memory_intensive_function.trace(3, 999)
        result = analyzer.analyze(pattern, trace)
        # Untouched memory offloads, but a good chunk of the hot working
        # set must stay in DRAM.
        ws_frac = memory_intensive_function.inputs[-1].ws_fraction
        assert result.slow_fraction < 1.0 - ws_frac / 2


class TestSlowdownThreshold:
    def test_threshold_bounds_slowdown(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        analyzer = ProfilingAnalyzer()
        trace = tiny_function.trace(3, 999)
        free = analyzer.analyze(pattern, trace)
        capped = analyzer.analyze(pattern, trace, slowdown_threshold=0.005)
        assert capped.expected_slowdown <= free.expected_slowdown + 1e-9
        assert capped.slow_fraction <= free.slow_fraction + 1e-9
        # Bounding the slowdown costs money (Section VI-C1).
        assert capped.cost >= free.cost - 1e-9

    def test_zero_threshold_still_offloads_zero_pages(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        analyzer = ProfilingAnalyzer()
        result = analyzer.analyze(
            pattern, tiny_function.trace(3, 999), slowdown_threshold=0.0
        )
        assert result.zero_pages > 0
        assert result.slow_fraction >= result.zero_pages / result.n_pages - 1e-9

    def test_negative_threshold_rejected(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        with pytest.raises(AnalysisError):
            ProfilingAnalyzer().analyze(
                pattern, tiny_function.trace(3, 999), slowdown_threshold=-0.1
            )

    def test_nan_threshold_rejected(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        with pytest.raises(AnalysisError):
            ProfilingAnalyzer().analyze(
                pattern, tiny_function.trace(3, 999), slowdown_threshold=np.nan
            )


class TestValidation:
    def test_size_mismatch_rejected(self, tiny_function):
        pattern = UnifiedAccessPattern(128, convergence_window=2)
        with pytest.raises(AnalysisError):
            ProfilingAnalyzer().analyze(pattern, tiny_function.trace(0, 0))

    def test_bad_bin_count_rejected(self):
        with pytest.raises(AnalysisError):
            ProfilingAnalyzer(n_bins=0)
