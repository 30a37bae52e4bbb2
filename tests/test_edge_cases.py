"""Edge-case tests across modules: boundaries, degenerate inputs, units."""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.core.cost import normalized_cost
from repro.core.toss import Phase, TossConfig, TossController
from repro.functions.base import FunctionModel, InputSpec
from repro.memsim.page_cache import HostPageCache
from repro.memsim.tiers import Tier
from repro.pricing import VendorPlan
from repro.profiling.damon import DamonConfig, DamonProfiler
from repro.trace.synth import Band
from repro.vm.microvm import Backing, MicroVM
from repro.vm.layout import MemoryLayout

from conftest import make_trace


class TestUnitsAndScales:
    def test_pages_per_mb(self):
        assert config.PAGES_PER_MB == 256
        assert 128 * config.PAGES_PER_MB == 32768

    def test_ssd_fault_cheaper_than_uffd_wait(self):
        """Kernel-path major faults must stay under REAP's uffd cost for
        the Figure 8 ordering to make sense."""
        assert config.MAJOR_FAULT_LATENCY_S < config.UFFD_FAULT_LATENCY_S

    def test_tiered_restore_beats_prefetch_scaling(self):
        """TOSS's per-restore constant must sit well below even a modest
        working-set prefetch (the Figure 7 story)."""
        constant = (
            config.VM_STATE_LOAD_S
            + config.TIERED_RESTORE_BASE_S
            + 100 * config.MMAP_REGION_SETUP_S
        )
        prefetch_100mb = 100 * config.MB / config.SSD_SEQ_READ_BPS
        assert constant < prefetch_100mb


class TestSinglePageGuests:
    def test_one_page_trace_executes(self):
        trace = make_trace(n_pages=1, pages=(0,), counts=(5,))
        res = MicroVM(1).execute(trace)
        assert res.counters.total_accesses == 5

    def test_one_page_layout(self):
        layout = MemoryLayout.from_placement(
            np.array([int(Tier.SLOW)], dtype=np.uint8)
        )
        assert layout.n_mappings == 1
        assert layout.slow_fraction == 1.0

    def test_one_page_damon(self):
        damon = DamonProfiler(1, rng=np.random.default_rng(0))
        snap = damon.profile(
            [
                type(
                    "R", (), {"duration_s": 0.01,
                              "pages": np.array([0]),
                              "counts": np.array([100])}
                )()
            ]
        )
        assert snap.page_values().shape == (1,)


class TestDegenerateWorkloads:
    def test_function_with_no_memory_pressure(self):
        """A pure-CPU function should offload everything at ~zero cost."""
        func = FunctionModel(
            name="cpu_only",
            description="spin",
            guest_mb=128,
            input_type="N",
            inputs=tuple(
                InputSpec(f"i{i}", t_dram_s=0.01 * (i + 1),
                          stall_share=1e-4, ws_fraction=0.01 * (i + 1))
                for i in range(4)
            ),
            bands=(Band(1.0, 1.0),),
        )
        ctl = TossController(
            func, cfg=TossConfig(convergence_window=3,
                                 min_profiling_invocations=3)
        )
        for _ in range(40):
            ctl.invoke(3)
            if ctl.phase is Phase.TIERED:
                break
        assert ctl.phase is Phase.TIERED
        assert ctl.slow_fraction > 0.95
        assert ctl.analysis.cost < 0.45

    def test_zero_count_epoch_mid_trace(self):
        trace = make_trace(pages=(), counts=(), n_epochs=2)
        res = MicroVM(4096).execute(trace)
        assert res.time_s == pytest.approx(trace.cpu_time_s)

    def test_all_pages_touched_every_epoch(self):
        pages = tuple(range(256))
        counts = tuple([3] * 256)
        trace = make_trace(n_pages=256, pages=pages, counts=counts, n_epochs=3)
        backing = np.full(256, int(Backing.DAX_SLOW), dtype=np.uint8)
        res = MicroVM(256, backing=backing).execute(trace)
        assert res.counters.minor_faults == 256  # first epoch only


PER_100MS = VendorPlan("per-100ms", rate_per_mb_ms=1.0, billing_quantum_ms=100.0)
"""A plan billed per 100 ms, as Cloud Functions is."""


class TestPricingQuanta:
    def test_gcp_quantum_dominates_short_invocations(self):
        """With 100 ms billing quanta, a 5 ms function pays for 100 ms."""
        assert PER_100MS.invocation_cost(128, 0.005) == pytest.approx(128 * 100.0)

    def test_zero_duration_bills_one_quantum(self):
        assert PER_100MS.billable_ms(0.0) == 100.0


class TestPageCacheBoundaries:
    def test_fault_at_last_page(self):
        cache = HostPageCache(16, readahead_pages=8)
        assert cache.fault_in(np.array([15])) == 1
        assert cache.resident_mask().sum() == 1  # no readahead past the end

    def test_interleaved_faults_share_readahead(self):
        cache = HostPageCache(64, readahead_pages=8)
        misses_first = cache.fault_in(np.arange(0, 32, 2))  # even pages
        misses_second = cache.fault_in(np.arange(1, 32, 2))  # odd pages
        # Odd pages were mostly covered by the even sweep's readahead;
        # only window-boundary pages (9, 19, 29) can still miss.
        assert misses_first <= 4
        assert misses_second <= misses_first


class TestCostBoundaries:
    def test_cost_at_exact_bounds(self):
        assert normalized_cost(1.0, 0.0) == pytest.approx(0.4)
        assert normalized_cost(1.0, 1.0) == pytest.approx(1.0)

    def test_slowdown_exactly_one(self):
        assert normalized_cost(1.0, 0.5) == pytest.approx(0.7)


class TestDamonBudget:
    def test_region_cap_respected_under_fragmentation(self):
        rng = np.random.default_rng(0)
        damon = DamonProfiler(
            65536, DamonConfig(max_nr_regions=128), rng=rng
        )
        # Highly fragmented pattern pushing toward many regions.
        pages = np.sort(rng.choice(65536, size=2000, replace=False))
        counts = rng.integers(1, 10_000, size=2000)
        rec = type(
            "R", (), {"duration_s": 0.05, "pages": pages, "counts": counts}
        )()
        for _ in range(10):
            damon.profile([rec])
        assert damon.n_regions <= 128
