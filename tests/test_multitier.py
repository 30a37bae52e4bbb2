"""Tests for N-tier chains: Equation 1, execution and the measured
placement search (:func:`repro.core.tiering.search_tier_placement` and
its named entry point, ``MultiTierAnalyzer.analyze``).

The test classes keep their historical names; each covers the same
property on :class:`~repro.memsim.tiers.MemorySystem` chains.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import ProfilingAnalyzer
from repro.core.cost import normalized_cost_tiers
from repro.core.tiering import search_tier_placement
from repro.errors import AnalysisError, ConfigError, VMError
from repro.memsim.compressed import compressed_memory_system
from repro.memsim.presets import CXL_DDR4_SPEC, NVME_AS_MEMORY_SPEC
from repro.memsim.tiers import (
    DEFAULT_MEMORY_SYSTEM,
    DRAM_SPEC,
    PMEM_SPEC,
    MemorySystem,
    Tier,
)
from repro.multitier.analysis import MultiTierAnalyzer
from repro.trace.events import AccessEpoch, InvocationTrace
from repro.vm.microvm import MicroVM

from conftest import make_trace
from test_core_analysis import profiled_pattern

DRAM_CXL_NVME = MemorySystem(
    fast=DRAM_SPEC, middle=(CXL_DDR4_SPEC,), slow=NVME_AS_MEMORY_SPEC
)
DRAM_PMEM_NVME = MemorySystem(
    fast=DRAM_SPEC, middle=(PMEM_SPEC,), slow=NVME_AS_MEMORY_SPEC
)


class TestTierLadder:
    """Three-tier chains.  Misordered chains are rejected by
    ``test_memsim_tiers.py::TestNTierChain``."""

    def test_valid_ladders(self):
        assert DRAM_CXL_NVME.n_tiers == 3
        assert DRAM_PMEM_NVME.n_tiers == 3

    def test_price_ratios_non_increasing(self):
        for memory in (DRAM_CXL_NVME, DRAM_PMEM_NVME):
            ratios = [memory.price_relative(t) for t in memory.tier_ids]
            assert ratios[0] == pytest.approx(1.0)
            assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_optimal_cost_is_cheapest_rung(self):
        assert DRAM_CXL_NVME.optimal_normalized_cost == pytest.approx(
            NVME_AS_MEMORY_SPEC.cost_per_mb / DRAM_SPEC.cost_per_mb
        )

    def test_single_tier_rejected(self):
        # Without compression points or a hardware slow tier the chain
        # would be DRAM alone.
        with pytest.raises(ConfigError, match="at least one compression point"):
            compressed_memory_system((), slow=None)

    def test_latencies_monotone(self):
        lat = DRAM_CXL_NVME.access_latency_by_id()[list(DRAM_CXL_NVME.tier_ids)]
        assert all(b >= a for a, b in zip(lat, lat[1:]))


class TestMultiTierCost:
    def test_all_top_tier_is_one(self):
        assert normalized_cost_tiers(1.0, [1.0, 0.0, 0.0], DRAM_CXL_NVME) == 1.0

    def test_all_bottom_is_optimal(self):
        cost = normalized_cost_tiers(1.0, [0.0, 0.0, 1.0], DRAM_CXL_NVME)
        assert cost == pytest.approx(DRAM_CXL_NVME.optimal_normalized_cost)

    def test_two_tier_degenerate_matches_equation_1(self):
        cost = normalized_cost_tiers(1.2, [0.3, 0.7], DEFAULT_MEMORY_SYSTEM)
        assert cost == pytest.approx(1.2 * (0.3 + 0.7 / 2.5))

    def test_validation(self):
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(0.9, [1, 0, 0], DRAM_CXL_NVME)
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(1.0, [0.5, 0.5], DRAM_CXL_NVME)
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(1.0, [0.9, 0.2, -0.1], DRAM_CXL_NVME)


class TestMultiTierVM:
    """:class:`MicroVM` executing on a three-tier chain."""

    def test_rung_latency_ordering(self):
        trace = make_trace(pages=(0,), counts=(100_000,), cpu_time_s=0.001)
        times = []
        for tier in DRAM_CXL_NVME.tier_ids:
            placement = np.full(4096, tier, dtype=np.uint8)
            vm = MicroVM(4096, memory=DRAM_CXL_NVME, placement=placement)
            times.append(vm.execute(trace).time_s)
        assert times == sorted(times)

    def test_slowdown_reference(self):
        # All-fast on a richer chain runs exactly as on the two tiers.
        trace = make_trace(pages=(0,), counts=(100_000,))
        chained = MicroVM(4096, memory=DRAM_CXL_NVME).execute(trace)
        two_tier = MicroVM(4096).execute(trace)
        assert chained.time_s == two_tier.time_s

    def test_fractions(self):
        placement = np.zeros(100, dtype=np.uint8)
        placement[:25] = int(Tier.SLOW)
        vm = MicroVM(100, memory=DRAM_CXL_NVME, placement=placement)
        fractions = [vm.tier_pages(t) / 100 for t in DRAM_CXL_NVME.tier_ids]
        np.testing.assert_allclose(fractions, [0.75, 0.0, 0.25])

    def test_out_of_range_rung_rejected(self):
        with pytest.raises(VMError, match="chain has 3"):
            MicroVM(
                10,
                memory=DRAM_CXL_NVME,
                placement=np.full(10, 5, dtype=np.uint8),
            )


class TestMultiTierAnalyzer:
    """The measured search on three-tier chains."""

    @pytest.fixture
    def pattern_and_trace(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        return tiny_function, pattern, tiny_function.trace(3, 999)

    def test_three_tier_beats_two_tier_cost(self, pattern_and_trace):
        function, pattern, trace = pattern_and_trace
        two = ProfilingAnalyzer().analyze(pattern, trace)
        three = search_tier_placement(pattern, trace, DRAM_PMEM_NVME)
        # A strictly richer chain can only improve the optimum.
        assert three.cost <= two.cost + 1e-9

    def test_placement_within_bounds(self, pattern_and_trace):
        _, pattern, trace = pattern_and_trace
        result = search_tier_placement(pattern, trace, DRAM_CXL_NVME)
        assert result.placement.max() < 3
        assert sum(result.tier_fractions) == pytest.approx(1.0)
        assert result.cost >= DRAM_CXL_NVME.optimal_normalized_cost - 1e-9
        assert result.slowdown >= 1.0

    def test_threshold_bounds_slowdown(self, pattern_and_trace):
        _, pattern, trace = pattern_and_trace
        free = search_tier_placement(pattern, trace, DRAM_PMEM_NVME)
        capped = search_tier_placement(
            pattern, trace, DRAM_PMEM_NVME, slowdown_threshold=0.01
        )
        assert capped.slowdown - 1.0 <= 0.01 + 1e-9
        assert capped.cost >= free.cost - 1e-9

    @pytest.mark.parametrize("threshold", [-0.5, float("nan")])
    def test_bad_threshold_rejected(self, pattern_and_trace, threshold):
        _, pattern, trace = pattern_and_trace
        with pytest.raises(AnalysisError, match="threshold"):
            search_tier_placement(
                pattern, trace, DRAM_PMEM_NVME, slowdown_threshold=threshold
            )

    def test_hot_pages_stay_on_top_rung(self, memory_intensive_function):
        """A uniformly hot working set resists demotion even with three
        tiers available, within Section V-C's 30% budget.  (Unbudgeted,
        the optimum demotes everything at slowdown ~2.3.)"""
        pattern = profiled_pattern(memory_intensive_function)
        trace = memory_intensive_function.trace(3, 999)
        result = search_tier_placement(
            pattern, trace, DRAM_PMEM_NVME, slowdown_threshold=0.30
        )
        assert result.tier_fractions[0] > 0.1

    def test_mismatched_guest_rejected(self, tiny_function):
        from repro.profiling.unified import UnifiedAccessPattern

        pattern = UnifiedAccessPattern(128, convergence_window=2)
        with pytest.raises(AnalysisError):
            search_tier_placement(
                pattern, tiny_function.trace(0, 0), DRAM_CXL_NVME
            )

    def test_zero_duration_trace_rejected(self, pattern_and_trace):
        _, pattern, _ = pattern_and_trace
        empty = np.empty(0, dtype=np.int64)
        trace = InvocationTrace(
            n_pages=pattern.n_pages,
            epochs=(AccessEpoch(cpu_time_s=0.0, pages=empty, counts=empty),),
        )
        with pytest.raises(AnalysisError, match="zero duration"):
            search_tier_placement(pattern, trace, DRAM_CXL_NVME)

    def test_named_entry_point_runs_the_search(self, pattern_and_trace):
        _, pattern, trace = pattern_and_trace
        direct = search_tier_placement(
            pattern, trace, DRAM_CXL_NVME, slowdown_threshold=0.05
        )
        named = MultiTierAnalyzer(DRAM_CXL_NVME).analyze(
            pattern, trace, slowdown_threshold=0.05
        )
        assert (named.cost, named.slowdown) == (direct.cost, direct.slowdown)
        np.testing.assert_array_equal(named.placement, direct.placement)
