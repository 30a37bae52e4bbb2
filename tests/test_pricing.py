"""Tests for vendor plans and tiered billing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.memsim.tiers import DRAM_SPEC, MemorySystem
from repro.pricing import (
    AWS_LAMBDA,
    VendorPlan,
    bill_invocation,
    bundle_mb,
)

GCP_STYLE = VendorPlan("gcp-style", rate_per_mb_ms=1.0, billing_quantum_ms=100.0)
"""A plan billed per 100 ms, as Cloud Functions is."""


class TestBundles:
    @pytest.mark.parametrize(
        "need,expected",
        [(1, 128), (128, 128), (129, 256), (300, 384), (1024, 1024)],
    )
    def test_smallest_covering_bundle(self, need, expected):
        assert bundle_mb(need) == expected

    def test_invalid(self):
        with pytest.raises(ConfigError):
            bundle_mb(0)


class TestVendorPlan:
    def test_lambda_bills_per_ms(self):
        assert AWS_LAMBDA.billable_ms(0.0123) == pytest.approx(13.0)

    def test_gcp_bills_per_100ms(self):
        assert GCP_STYLE.billable_ms(0.0123) == pytest.approx(100.0)
        assert GCP_STYLE.billable_ms(0.250) == pytest.approx(300.0)

    def test_invocation_cost_uses_bundle(self):
        cost_129 = AWS_LAMBDA.invocation_cost(129, 0.01)
        cost_256 = AWS_LAMBDA.invocation_cost(256, 0.01)
        assert cost_129 == pytest.approx(cost_256)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            AWS_LAMBDA.billable_ms(-1.0)

    def test_invalid_plan(self):
        with pytest.raises(ConfigError):
            VendorPlan("bad", rate_per_mb_ms=0.0, billing_quantum_ms=1.0)


class TestTieredBilling:
    def test_all_dram_bill_unchanged(self):
        """Worst case: users pay exactly today's plans (Section III-D)."""
        bill = bill_invocation(
            guest_mb=256, duration_s=0.1, slow_fraction=0.0, slowdown=1.0
        )
        assert bill.tiered_cost == pytest.approx(bill.dram_cost)
        assert bill.savings_fraction == pytest.approx(0.0)

    def test_offloading_saves(self):
        bill = bill_invocation(
            guest_mb=256, duration_s=0.1, slow_fraction=0.9, slowdown=1.0
        )
        assert bill.tiered_cost < bill.dram_cost
        assert bill.savings_fraction > 0.4

    def test_optimal_saving_is_60pct(self):
        bill = bill_invocation(
            guest_mb=256, duration_s=0.1, slow_fraction=1.0, slowdown=1.0
        )
        assert bill.savings_fraction == pytest.approx(0.6, abs=0.01)

    def test_slowdown_eats_into_savings(self):
        fast = bill_invocation(
            guest_mb=256, duration_s=0.1, slow_fraction=1.0, slowdown=1.0
        )
        slowed = bill_invocation(
            guest_mb=256, duration_s=0.15, slow_fraction=1.0, slowdown=1.5
        )
        assert slowed.savings_fraction < fast.savings_fraction

    def test_tier_fractions_two_tier_matches_slow_fraction(self):
        classic = bill_invocation(
            guest_mb=256, duration_s=0.1, slow_fraction=0.7, slowdown=1.1
        )
        chained = bill_invocation(
            guest_mb=256,
            duration_s=0.1,
            slow_fraction=0.7,
            slowdown=1.1,
            tier_fractions=(0.3, 0.7),
        )
        assert chained.tiered_cost == pytest.approx(classic.tiered_cost)

    def test_tier_fractions_price_middle_tier(self):
        from repro.memsim.compressed import LZ4_POINT, compressed_memory_system

        memory = compressed_memory_system((LZ4_POINT,))
        on_pmem = bill_invocation(
            guest_mb=256, duration_s=0.1, slow_fraction=0.5,
            memory=memory, tier_fractions=(0.5, 0.0, 0.5),
        )
        on_lz4 = bill_invocation(
            guest_mb=256, duration_s=0.1, slow_fraction=0.5,
            memory=memory, tier_fractions=(0.5, 0.5, 0.0),
        )
        # lz4-compressed DRAM (x2.5 ratio at DRAM price) prices exactly
        # like PMEM at the paper's 2.5 cost ratio.
        assert on_lz4.tiered_cost == pytest.approx(on_pmem.tiered_cost)

    def test_tier_fractions_blend_folds_left(self, compensated_sum):
        """The per-tier price terms add left to right on any Python: on an
        all-DRAM chain the blend of (0.3, 0.6, 0.1) is the left fold
        0.9999999999999999, where the compensated ``sum()`` of Python
        3.12 gives 1.0."""
        memory = MemorySystem(fast=DRAM_SPEC, middle=(DRAM_SPEC,), slow=DRAM_SPEC)
        bill = bill_invocation(
            guest_mb=128, duration_s=0.1, slow_fraction=0.0,
            memory=memory, tier_fractions=(0.3, 0.6, 0.1),
        )
        assert bill.tiered_cost == bill.dram_cost * ((0.3 + 0.6) + 0.1)
        assert bill.tiered_cost < bill.dram_cost

    def test_tier_fractions_validated(self):
        with pytest.raises(ConfigError):
            bill_invocation(
                guest_mb=128, duration_s=0.1, slow_fraction=0.0,
                tier_fractions=(0.5, 0.2, 0.3),
            )
        with pytest.raises(ConfigError):
            bill_invocation(
                guest_mb=128, duration_s=0.1, slow_fraction=0.0,
                tier_fractions=(0.5, 0.4),
            )

    @pytest.mark.parametrize("fractions", [(1.5, -0.5), (-0.5, 1.5)])
    def test_tier_fraction_outside_unit_interval_rejected(self, fractions):
        # Sums to 1 with the right length, so only a per-entry check
        # stops it billing 1.3x the DRAM plan with slow_fraction -0.5.
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            bill_invocation(
                guest_mb=128, duration_s=0.1, slow_fraction=0.0,
                tier_fractions=fractions,
            )

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            bill_invocation(
                guest_mb=128, duration_s=0.1, slow_fraction=1.5
            )
        with pytest.raises(ConfigError):
            bill_invocation(
                guest_mb=128, duration_s=0.1, slow_fraction=0.5, slowdown=0.5
            )
