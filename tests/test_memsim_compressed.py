"""Tests for software-defined compressed memory tiers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core.analysis import ProfilingAnalyzer
from repro.core.tiering import search_tier_placement
from repro.errors import ConfigError
from repro.functions.base import FunctionModel, InputSpec
from repro.memsim.compressed import (
    DEFLATE_POINT,
    IDENTITY_POINT,
    LZ4_POINT,
    OPERATING_POINTS,
    ZSTD_POINT,
    CompressionPoint,
    compressed_memory_system,
    compressed_tier,
)
from repro.memsim.tiers import (
    DEFAULT_MEMORY_SYSTEM,
    DRAM_SPEC,
    PMEM_SPEC,
    Tier,
)
from repro.trace.synth import Band
from repro.vm.microvm import Backing, MicroVM

from test_core_analysis import profiled_pattern


class TestCompressionPoint:
    def test_operating_points_ordered_fastest_first(self):
        ratios = [p.ratio for p in OPERATING_POINTS]
        assert ratios == sorted(ratios)
        decompress = [p.decompress_page_latency_s for p in OPERATING_POINTS]
        assert decompress == sorted(decompress)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ConfigError, match="ratio"):
            CompressionPoint("bad", 0.9, 1e-6, 1e-6)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            CompressionPoint("bad", 2.0, -1e-6, 1e-6)
        with pytest.raises(ConfigError):
            CompressionPoint("bad", 2.0, 1e-6, -1e-6)

    def test_unnamed_rejected(self):
        with pytest.raises(ConfigError):
            CompressionPoint("", 2.0, 0.0, 0.0)


class TestCompressedTierFactory:
    def test_price_scales_with_ratio(self):
        tier = compressed_tier(LZ4_POINT)
        assert tier.cost_per_mb == pytest.approx(
            DRAM_SPEC.cost_per_mb / LZ4_POINT.ratio
        )

    def test_codec_latency_amortized_over_cachelines(self):
        tier = compressed_tier(ZSTD_POINT)
        per_access = config.PAGE_SIZE // DRAM_SPEC.access_bytes
        assert tier.load_latency_s == pytest.approx(
            DRAM_SPEC.load_latency_s
            + ZSTD_POINT.decompress_page_latency_s / per_access
        )
        assert tier.store_latency_s == pytest.approx(
            DRAM_SPEC.store_latency_s
            + ZSTD_POINT.compress_page_latency_s / per_access
        )

    def test_identity_point_is_the_backing_tier(self):
        """Ratio 1.0 with free codecs degenerates to plain DRAM."""
        tier = compressed_tier(IDENTITY_POINT)
        assert tier.load_latency_s == DRAM_SPEC.load_latency_s
        assert tier.store_latency_s == DRAM_SPEC.store_latency_s
        assert tier.cost_per_mb == DRAM_SPEC.cost_per_mb
        assert tier.effective_capacity_multiplier == 1.0

    def test_extreme_ratio_prices_toward_zero(self):
        dense = CompressionPoint("dense", 1e6, 1e-3, 1e-3)
        tier = compressed_tier(dense)
        assert tier.cost_per_mb == pytest.approx(
            DRAM_SPEC.cost_per_mb / 1e6
        )
        assert tier.cost_per_mb > 0

    def test_decompression_dominates_load_latency(self):
        """A slow codec swamps the DRAM access underneath it."""
        sluggish = CompressionPoint("sluggish", 2.0, 1e-3, 1e-3)
        tier = compressed_tier(sluggish)
        per_access = config.PAGE_SIZE // DRAM_SPEC.access_bytes
        codec_share = (1e-3 / per_access) / tier.load_latency_s
        assert codec_share > 0.99

    def test_name_embeds_point_and_ratio(self):
        assert "lz4" in compressed_tier(LZ4_POINT).name
        assert "x2.5" in compressed_tier(LZ4_POINT).name


class TestCompressedMemorySystem:
    def test_middle_tier_between_dram_and_pmem(self):
        memory = compressed_memory_system((LZ4_POINT,))
        assert memory.n_tiers == 3
        assert memory.fast is DRAM_SPEC
        assert memory.slow is PMEM_SPEC
        assert memory.middle[0].compression is LZ4_POINT

    def test_terminal_compressed_tier(self):
        memory = compressed_memory_system((ZSTD_POINT,), slow=None)
        assert memory.n_tiers == 2
        assert memory.slow.compression is ZSTD_POINT

    def test_two_points_no_hardware_slow_tier(self):
        memory = compressed_memory_system(
            (LZ4_POINT, ZSTD_POINT), slow=None
        )
        assert memory.n_tiers == 3
        assert memory.middle[0].compression is LZ4_POINT
        assert memory.slow.compression is ZSTD_POINT

    def test_point_cheaper_than_slow_tier_rejected_above_it(self):
        # zstd is cheaper AND faster than PMEM, so it cannot sit above
        # it in the chain; it belongs at the bottom (slow=None).
        with pytest.raises(ConfigError):
            compressed_memory_system((ZSTD_POINT,))

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigError):
            compressed_memory_system(())


class TestExecutionByteIdentity:
    """Ratio-1.0 execution matches plain DRAM bit-for-bit."""

    def _trace(self):
        from conftest import make_trace

        return make_trace(
            pages=(0, 5, 9, 2000, 3000),
            counts=(500, 300, 200, 100, 50),
            store_fraction=0.25,
        )

    def test_identity_middle_tier_execution_matches_two_tier(self):
        trace = self._trace()
        identity = compressed_memory_system((IDENTITY_POINT,))
        placement = np.zeros(4096, dtype=np.uint8)
        placement[2048:] = int(Tier.SLOW)

        two = MicroVM(4096, placement=placement.copy())
        three = MicroVM(4096, memory=identity, placement=placement.copy())
        t2 = two.execute(trace)
        t3 = three.execute(trace)
        assert t3.counters.total_time_s == t2.counters.total_time_s
        assert t3.counters.fast_stall_s == t2.counters.fast_stall_s
        assert t3.counters.slow_stall_s == t2.counters.slow_stall_s

    def test_pages_on_identity_tier_run_at_dram_speed(self):
        trace = self._trace()
        identity = compressed_memory_system((IDENTITY_POINT,))
        on_mid = np.full(4096, 2, dtype=np.uint8)
        on_fast = np.zeros(4096, dtype=np.uint8)
        mid_vm = MicroVM(4096, memory=identity, placement=on_mid)
        fast_vm = MicroVM(4096, memory=identity, placement=on_fast)
        assert mid_vm.execute(trace).counters.total_time_s == (
            pytest.approx(fast_vm.execute(trace).counters.total_time_s)
        )

    def test_no_middle_tier_config_unchanged(self):
        trace = self._trace()
        placement = np.zeros(4096, dtype=np.uint8)
        placement[1000:] = int(Tier.SLOW)
        a = MicroVM(4096, placement=placement.copy()).execute(trace)
        b = MicroVM(
            4096, memory=DEFAULT_MEMORY_SYSTEM, placement=placement.copy()
        ).execute(trace)
        assert a.counters.total_time_s == b.counters.total_time_s


class TestCompressedPoolFaults:
    def test_fault_in_charges_decompression_per_page(self):
        # Decompress cost chosen so the amortised per-access latency
        # (80ns + 10us/64) still sits above DRAM and below PMEM, keeping
        # the chain legal while the per-page fault cost dominates.
        slow_codec = CompressionPoint("slowcodec", 2.0, 0.0, 1e-5)
        memory = compressed_memory_system((slow_codec,))
        n = 64
        placement = np.full(n, 2, dtype=np.uint8)
        backing = np.full(n, int(Backing.COMPRESSED_POOL), dtype=np.uint8)
        vm = MicroVM(n, memory=memory, placement=placement, backing=backing)
        from conftest import make_trace

        trace = make_trace(
            n_pages=n, pages=tuple(range(8)), counts=(1,) * 8,
            cpu_time_s=0.0,
        )
        result = vm.execute(trace)
        # 8 first touches, each paying the full per-page decompression.
        assert result.counters.minor_faults == 8
        assert result.counters.fault_stall_s >= 8 * 1e-5

    def test_faulted_pages_become_resident(self):
        memory = compressed_memory_system((LZ4_POINT,))
        n = 16
        backing = np.full(n, int(Backing.COMPRESSED_POOL), dtype=np.uint8)
        vm = MicroVM(
            n,
            memory=memory,
            placement=np.full(n, 2, dtype=np.uint8),
            backing=backing,
        )
        from conftest import make_trace

        trace = make_trace(n_pages=n, pages=(0, 1), counts=(5, 5))
        vm.execute(trace)
        assert vm._resident.sum() == 2


@lru_cache(maxsize=1)
def _tiny_pattern_and_trace():
    """A converged pattern + evaluation trace for the property test.

    Mirrors the ``tiny_function`` fixture; cached because hypothesis
    re-runs the property many times against the same workload.
    """
    function = FunctionModel(
        name="tiny",
        description="test function",
        guest_mb=128,
        input_type="N",
        inputs=(
            InputSpec("small", t_dram_s=0.002, stall_share=0.02,
                      ws_fraction=0.05, variability=0.02),
            InputSpec("mid", t_dram_s=0.005, stall_share=0.04,
                      ws_fraction=0.10, variability=0.02),
            InputSpec("large", t_dram_s=0.010, stall_share=0.06,
                      ws_fraction=0.15, variability=0.02),
            InputSpec("xl", t_dram_s=0.020, stall_share=0.08,
                      ws_fraction=0.20, variability=0.02),
        ),
        bands=(Band(0.10, 0.70), Band(0.90, 0.30)),
        n_epochs=3,
        store_fraction=0.2,
    )
    pattern = profiled_pattern(function)
    trace = function.trace(3, 999)
    return pattern, trace


class TestMonotonicityProperty:
    @given(
        point=st.sampled_from([LZ4_POINT, ZSTD_POINT, DEFLATE_POINT]),
        threshold=st.sampled_from([0.02, 0.05, 0.10, 0.25]),
    )
    @settings(max_examples=12, deadline=None)
    def test_adding_compressed_tier_never_raises_cost(
        self, point, threshold
    ):
        """At a fixed slowdown budget, a richer chain can't cost more."""
        pattern, trace = _tiny_pattern_and_trace()
        two = search_tier_placement(
            pattern, trace, DEFAULT_MEMORY_SYSTEM, slowdown_threshold=threshold
        )
        if point.ratio > DEFAULT_MEMORY_SYSTEM.cost_ratio:
            memory = compressed_memory_system((point,), slow=None)
        else:
            memory = compressed_memory_system((point,))
        richer = search_tier_placement(
            pattern, trace, memory, slowdown_threshold=threshold
        )
        assert richer.cost <= two.cost + 1e-9

    def test_two_tier_placement_projects_onto_richer_chain(self):
        """Tier ids are stable, so the two-tier placement is one of the
        richer chain's candidates and the exact search can only beat it."""
        pattern, trace = _tiny_pattern_and_trace()
        analysis = ProfilingAnalyzer().analyze(pattern, trace)
        memory = compressed_memory_system((LZ4_POINT,))
        result = search_tier_placement(pattern, trace, memory)
        assert result.cost <= analysis.cost + 1e-9
