"""Tests for tier specifications and the two-tier memory system."""

from __future__ import annotations

import math

import pytest

from repro import config
from repro.errors import ConfigError
from repro.memsim.tiers import (
    DEFAULT_MEMORY_SYSTEM,
    DRAM_SPEC,
    PMEM_SPEC,
    MemorySystem,
    Tier,
    TierSpec,
)


class TestTierSpec:
    def test_default_platform_values(self):
        assert DRAM_SPEC.load_latency_s == pytest.approx(80e-9)
        assert PMEM_SPEC.load_latency_s == pytest.approx(300e-9)
        assert PMEM_SPEC.store_latency_s > PMEM_SPEC.load_latency_s

    def test_random_penalty_blend(self):
        lat0 = PMEM_SPEC.effective_load_latency_s(0.0)
        lat1 = PMEM_SPEC.effective_load_latency_s(1.0)
        lat_half = PMEM_SPEC.effective_load_latency_s(0.5)
        assert lat0 == pytest.approx(PMEM_SPEC.load_latency_s)
        assert lat1 == pytest.approx(
            PMEM_SPEC.load_latency_s * PMEM_SPEC.random_penalty
        )
        assert lat0 < lat_half < lat1

    def test_dram_random_penalty_is_neutral(self):
        assert DRAM_SPEC.effective_load_latency_s(1.0) == pytest.approx(
            DRAM_SPEC.load_latency_s
        )

    def test_store_blend(self):
        all_loads = PMEM_SPEC.effective_access_latency_s(0.0, 0.0)
        all_stores = PMEM_SPEC.effective_access_latency_s(0.0, 1.0)
        assert all_loads == pytest.approx(PMEM_SPEC.load_latency_s)
        assert all_stores == pytest.approx(PMEM_SPEC.store_latency_s)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigError):
            PMEM_SPEC.effective_load_latency_s(1.5)
        with pytest.raises(ConfigError):
            PMEM_SPEC.effective_access_latency_s(0.0, -0.1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("load_latency_s", 0.0),
            ("store_latency_s", -1.0),
            ("bandwidth_bps", 0.0),
            ("cost_per_mb", -0.5),
            ("access_bytes", 0),
        ],
    )
    def test_nonpositive_characteristics_rejected(self, field, value):
        kwargs = dict(
            name="bad",
            load_latency_s=1e-7,
            store_latency_s=1e-7,
            bandwidth_bps=1e9,
            access_bytes=64,
            cost_per_mb=1.0,
        )
        kwargs[field] = value
        with pytest.raises(ConfigError):
            TierSpec(**kwargs)

    def test_random_penalty_below_one_rejected(self):
        with pytest.raises(ConfigError):
            TierSpec(
                name="bad",
                load_latency_s=1e-7,
                store_latency_s=1e-7,
                bandwidth_bps=1e9,
                access_bytes=64,
                cost_per_mb=1.0,
                random_penalty=0.5,
            )

    def test_ops_caps_default_unbounded(self):
        assert math.isinf(DRAM_SPEC.read_ops_cap)
        assert PMEM_SPEC.read_ops_cap == config.PMEM_READ_OPS_CAP


class TestMemorySystem:
    def test_cost_ratio_is_paper_value(self):
        assert DEFAULT_MEMORY_SYSTEM.cost_ratio == pytest.approx(2.5)
        assert DEFAULT_MEMORY_SYSTEM.optimal_normalized_cost == pytest.approx(0.4)

    def test_latency_ratio(self):
        assert DEFAULT_MEMORY_SYSTEM.latency_ratio() == pytest.approx(300 / 80)

    def test_spec_lookup(self):
        assert DEFAULT_MEMORY_SYSTEM.spec(Tier.FAST) is DRAM_SPEC
        assert DEFAULT_MEMORY_SYSTEM.spec(Tier.SLOW) is PMEM_SPEC
        assert DEFAULT_MEMORY_SYSTEM.spec(1) is PMEM_SPEC

    def test_access_latencies_indexable_by_tier(self):
        lat = DEFAULT_MEMORY_SYSTEM.access_latency_by_id()
        assert lat[Tier.FAST] < lat[Tier.SLOW]

    def test_slow_faster_than_fast_rejected(self):
        with pytest.raises(ConfigError):
            MemorySystem(fast=PMEM_SPEC, slow=DRAM_SPEC)

    def test_tier_enum_values(self):
        assert int(Tier.FAST) == 0 and int(Tier.SLOW) == 1


def _spec(name, load, cost, **kw):
    kwargs = dict(
        name=name,
        load_latency_s=load,
        store_latency_s=load,
        bandwidth_bps=1e9,
        access_bytes=64,
        cost_per_mb=cost,
    )
    kwargs.update(kw)
    return TierSpec(**kwargs)


class TestZeroCostTiers:
    """Satellite regression: cost_per_mb == 0 is a meaningful limit."""

    def test_zero_cost_spec_allowed(self):
        spec = _spec("free", 1e-6, 0.0)
        assert spec.cost_per_mb == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            _spec("bad", 1e-6, -1.0)

    def test_cost_ratio_raises_typed_error_on_free_slow_tier(self):
        memory = MemorySystem(fast=DRAM_SPEC, slow=_spec("free", 1e-6, 0.0))
        with pytest.raises(ConfigError, match="free"):
            memory.cost_ratio

    def test_optimal_normalized_cost_zero_limit(self):
        memory = MemorySystem(fast=DRAM_SPEC, slow=_spec("free", 1e-6, 0.0))
        assert memory.optimal_normalized_cost == 0.0


class TestNTierChain:
    """Satellite regression: full-chain ordering validation."""

    def _mid(self, load=150e-9, cost=1.5):
        return _spec("mid", load, cost)

    def test_ordered_three_tier_accepted(self):
        memory = MemorySystem(fast=DRAM_SPEC, slow=PMEM_SPEC, middle=(self._mid(),))
        assert memory.n_tiers == 3
        assert memory.tier_ids == (0, 2, 1)
        assert [t.name for t in memory.chain] == [
            DRAM_SPEC.name,
            "mid",
            PMEM_SPEC.name,
        ]

    def test_misordered_middle_faster_than_fast_rejected(self):
        with pytest.raises(ConfigError, match="faster"):
            MemorySystem(
                fast=DRAM_SPEC,
                slow=PMEM_SPEC,
                middle=(self._mid(load=10e-9),),
            )

    def test_misordered_middle_pricier_than_fast_rejected(self):
        with pytest.raises(ConfigError, match="costs more"):
            MemorySystem(
                fast=DRAM_SPEC,
                slow=PMEM_SPEC,
                middle=(self._mid(cost=DRAM_SPEC.cost_per_mb * 2),),
            )

    def test_misordered_slow_cheaper_than_middle_detected(self):
        # A middle tier cheaper than the slow tier below it breaks the
        # priciest-first chain even though both two-tier pairs are fine.
        with pytest.raises(ConfigError, match="costs more"):
            MemorySystem(
                fast=DRAM_SPEC,
                slow=PMEM_SPEC,
                middle=(_spec("cheap-mid", 150e-9, 0.5),),
            )

    def test_two_tier_error_messages_preserved(self):
        with pytest.raises(ConfigError, match="slow tier must not be faster"):
            MemorySystem(fast=PMEM_SPEC, slow=DRAM_SPEC)

    def test_spec_lookup_by_chain_id(self):
        mid = self._mid()
        memory = MemorySystem(fast=DRAM_SPEC, slow=PMEM_SPEC, middle=(mid,))
        assert memory.spec(2) is mid
        assert memory.spec(Tier.FAST) is DRAM_SPEC
        assert memory.spec(Tier.SLOW) is PMEM_SPEC
        with pytest.raises(ConfigError, match="unknown tier id"):
            memory.spec(3)

    def test_price_relative_in_chain(self):
        memory = MemorySystem(
            fast=DRAM_SPEC, slow=PMEM_SPEC, middle=(self._mid(cost=1.25),)
        )
        assert memory.price_relative(Tier.FAST) == pytest.approx(1.0)
        assert memory.price_relative(2) == pytest.approx(
            1.25 / DRAM_SPEC.cost_per_mb
        )

    def test_access_latency_by_id_layout(self):
        mid = self._mid()
        memory = MemorySystem(fast=DRAM_SPEC, slow=PMEM_SPEC, middle=(mid,))
        lat = memory.access_latency_by_id()
        assert lat[0] == pytest.approx(DRAM_SPEC.load_latency_s)
        assert lat[1] == pytest.approx(PMEM_SPEC.load_latency_s)
        assert lat[2] == pytest.approx(mid.load_latency_s)

    def test_two_tier_chain_defaults(self):
        assert DEFAULT_MEMORY_SYSTEM.middle == ()
        assert DEFAULT_MEMORY_SYSTEM.n_tiers == 2
        assert DEFAULT_MEMORY_SYSTEM.tier_ids == (0, 1)
