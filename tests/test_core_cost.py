"""Tests for the Equation 1 memory cost model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import (
    CostPoint,
    normalized_cost,
    normalized_cost_tiers,
)
from repro.errors import AnalysisError, ConfigError
from repro.memsim.compressed import LZ4_POINT, compressed_memory_system
from repro.memsim.tiers import (
    DEFAULT_MEMORY_SYSTEM,
    DRAM_SPEC,
    MemorySystem,
    TierSpec,
)


def _free_slow_system() -> MemorySystem:
    free = TierSpec(
        name="free",
        load_latency_s=1e-6,
        store_latency_s=1e-6,
        bandwidth_bps=1e9,
        access_bytes=64,
        cost_per_mb=0.0,
    )
    return MemorySystem(fast=DRAM_SPEC, slow=free)


class TestMemoryCost:
    def test_equation_1_verbatim(self):
        # SDown * (MB_fast * Cost_fast + MB_slow * Cost_slow), over the
        # all-fast bill of the same 500 MB.
        cost = normalized_cost(1.2, fast_fraction=0.2)
        assert cost == pytest.approx(1.2 * (100 * 2.5 + 400 * 1.0) / (500 * 2.5))

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            normalized_cost(0.9, 0.5)
        with pytest.raises(AnalysisError):
            normalized_cost(1.0, -0.1)


class TestNormalizedCost:
    def test_dram_only_is_one(self):
        assert normalized_cost(1.0, 1.0) == pytest.approx(1.0)

    def test_optimal_is_0_4(self):
        """All slow, no slowdown: 1/2.5 = 0.4 (paper's optimal line)."""
        assert normalized_cost(1.0, 0.0) == pytest.approx(0.4)

    def test_paper_pagerank_example(self):
        # 49.1% offloaded at 1.25x slowdown -> ~0.88 normalized.
        cost = normalized_cost(1.25, fast_fraction=0.509)
        assert cost == pytest.approx(1.25 * (0.509 + 0.491 / 2.5), rel=1e-9)

    def test_migration_reduces_cost_at_same_slowdown(self):
        """Paper: same slowdown, more slow tier => lower $/MB part."""
        assert normalized_cost(1.1, 0.3) < normalized_cost(1.1, 0.6)

    def test_slowdown_increases_cost_at_same_split(self):
        """Paper: same split, more slowdown => proportionally higher cost."""
        assert normalized_cost(1.5, 0.5) == pytest.approx(
            1.5 * normalized_cost(1.0, 0.5)
        )

    def test_bounds_validated(self):
        with pytest.raises(AnalysisError):
            normalized_cost(1.0, 1.5)
        with pytest.raises(AnalysisError):
            normalized_cost(0.99, 0.5)

    @given(
        sd=st.floats(min_value=1.0, max_value=20.0),
        fast=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_cost_bounds_property(self, sd, fast):
        cost = normalized_cost(sd, fast)
        optimal = DEFAULT_MEMORY_SYSTEM.optimal_normalized_cost
        # Never below the optimum, scales linearly with slowdown.
        assert cost >= optimal * sd - 1e-12
        assert cost <= sd + 1e-12

    @given(fast=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_fast_fraction(self, fast):
        if fast <= 0.99:
            assert normalized_cost(1.0, fast) <= normalized_cost(1.0, fast + 0.01) + 1e-12


class TestZeroPriceLimit:
    """Regression: a zero-cost tier used to blow up ``cost_ratio``."""

    def test_free_slow_tier_takes_the_limit_not_the_ratio(self):
        # Pre-fix this raised ZeroDivisionError via cost_ratio; the
        # limit of Equation 1 as Cost_slow -> 0 is SDown * f_fast.
        memory = _free_slow_system()
        assert normalized_cost(1.2, 0.5, memory) == pytest.approx(1.2 * 0.5)
        assert normalized_cost(1.0, 0.0, memory) == 0.0

    def test_free_fast_tier_raises_typed_error(self):
        free = TierSpec(
            name="free-fast",
            load_latency_s=1e-8,
            store_latency_s=1e-8,
            bandwidth_bps=1e9,
            access_bytes=64,
            cost_per_mb=0.0,
        )
        memory = MemorySystem(fast=free, slow=free)
        with pytest.raises(ConfigError, match="free"):
            normalized_cost(1.0, 0.5, memory)

    def test_cost_ratio_still_raises_typed_error(self):
        with pytest.raises(ConfigError):
            _free_slow_system().cost_ratio


class TestNormalizedCostTiers:
    def test_two_tier_degenerate_matches_normalized_cost(self):
        for sd, fast in [(1.0, 1.0), (1.1, 0.6), (1.3, 0.0)]:
            assert normalized_cost_tiers(sd, [fast, 1.0 - fast]) == (
                normalized_cost(sd, fast)
            )

    def test_three_tier_chain_prices(self):
        memory = compressed_memory_system((LZ4_POINT,))
        cost = normalized_cost_tiers(1.0, [0.5, 0.25, 0.25], memory)
        assert cost == pytest.approx(0.5 + 0.25 / LZ4_POINT.ratio + 0.25 / 2.5)

    def test_free_tier_contributes_nothing(self):
        memory = _free_slow_system()
        assert normalized_cost_tiers(1.0, [0.5, 0.5], memory) == (
            pytest.approx(0.5)
        )

    def test_prices_fold_left(self, compensated_sum):
        """The per-tier price terms add left to right on any Python: a
        left fold of (0.3, 0.6, 0.1) is 0.9999999999999999, where the
        compensated ``sum()`` of Python 3.12 gives 1.0."""
        memory = MemorySystem(fast=DRAM_SPEC, middle=(DRAM_SPEC,), slow=DRAM_SPEC)
        terms = (0.3, 0.6, 0.1)
        assert sum(terms) == 1.0
        assert normalized_cost_tiers(1.0, terms, memory) == (0.3 + 0.6) + 0.1

    def test_validation(self):
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(0.9, [1.0, 0.0])
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(1.0, [1.0])
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(1.0, [0.7, 0.7])
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(1.0, [1.5, -0.5])


class TestCostPoint:
    def test_of_builds_consistent_point(self):
        p = CostPoint.of(1.2, slow_fraction=0.75)
        assert p.cost == pytest.approx(normalized_cost(1.2, 0.25))
        assert p.slowdown == 1.2
