"""N-tier snapshot plumbing: bin spreading, layout, restore, batch gate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import ProfilingAnalyzer
from repro.core.tiering import build_tiered_snapshot, spread_bins_across_tiers
from repro.errors import LayoutError
from repro.memsim.compressed import (
    LZ4_POINT,
    ZSTD_POINT,
    compressed_memory_system,
)
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM, Tier
from repro.vm.layout import LayoutEntry, MemoryLayout
from repro.vm.microvm import Backing
from repro.vm.restore import tiered_restore
from repro.vm.snapshot import SingleTierSnapshot

from test_core_analysis import profiled_pattern


@pytest.fixture(scope="module")
def analysis():
    from conftest import tiny_function

    function = tiny_function.__wrapped__()
    pattern = profiled_pattern(function)
    return ProfilingAnalyzer().analyze(pattern, function.trace(3, 999))


class TestSpreadBins:
    def test_no_middle_tiers_is_identity(self, analysis):
        spread = spread_bins_across_tiers(analysis, DEFAULT_MEMORY_SYSTEM)
        np.testing.assert_array_equal(spread, analysis.placement)
        assert spread is not analysis.placement  # a copy, not an alias

    def test_middle_tiers_receive_offloaded_bins(self, analysis):
        memory = compressed_memory_system((LZ4_POINT,))
        spread = spread_bins_across_tiers(analysis, memory)
        used = set(np.unique(spread).tolist())
        # Chain ids only; fast pages never move.
        assert used <= {0, 1, 2}
        np.testing.assert_array_equal(
            spread == int(Tier.FAST), analysis.placement == int(Tier.FAST)
        )

    def test_spread_is_deterministic(self, analysis):
        memory = compressed_memory_system((LZ4_POINT, ZSTD_POINT), slow=None)
        a = spread_bins_across_tiers(analysis, memory)
        b = spread_bins_across_tiers(analysis, memory)
        np.testing.assert_array_equal(a, b)


class TestNTierLayout:
    def test_layout_round_trips_middle_tier_ids(self):
        placement = np.zeros(100, dtype=np.uint8)
        placement[10:30] = 2
        placement[50:100] = int(Tier.SLOW)
        layout = MemoryLayout.from_placement(placement)
        np.testing.assert_array_equal(layout.placement(), placement)
        assert [layout.pages_in_tier(t) for t in (0, 1, 2)] == [30, 50, 20]

    def test_negative_tier_id_rejected(self):
        with pytest.raises(LayoutError, match="unknown tier id"):
            LayoutEntry(
                tier=-1, file_offset_page=0, guest_start_page=0, n_pages=1
            )

    def test_two_tier_layout_unchanged(self):
        placement = np.zeros(64, dtype=np.uint8)
        placement[32:] = 1
        layout = MemoryLayout.from_placement(placement)
        assert layout.n_mappings == 2
        assert [layout.pages_in_tier(t) for t in (0, 1, 2)] == [32, 32, 0]


class TestNTierRestore:
    def _snapshot(self, analysis, memory):
        base = SingleTierSnapshot(
            n_pages=analysis.n_pages,
            page_versions=np.zeros(analysis.n_pages, dtype=np.uint64),
            label="tiny",
        )
        return build_tiered_snapshot(base, analysis, memory=memory)

    def test_middle_tier_pages_backed_by_compressed_pool(self, analysis):
        memory = compressed_memory_system((LZ4_POINT,))
        snapshot = self._snapshot(analysis, memory)
        result = tiered_restore(snapshot, memory=memory)
        placement = result.vm.placement
        middle_mask = placement > int(Tier.SLOW)
        if middle_mask.any():
            assert (
                result.vm.backing[middle_mask]
                == int(Backing.COMPRESSED_POOL)
            ).all()
        # Slow-tier pages keep their DAX mappings.
        slow_mask = placement == int(Tier.SLOW)
        assert not (
            result.vm.backing[slow_mask] == int(Backing.COMPRESSED_POOL)
        ).any()

    def test_two_tier_restore_has_no_compressed_pool(self, analysis):
        snapshot = self._snapshot(analysis, DEFAULT_MEMORY_SYSTEM)
        result = tiered_restore(snapshot, memory=DEFAULT_MEMORY_SYSTEM)
        assert not (
            result.vm.backing == int(Backing.COMPRESSED_POOL)
        ).any()

    def test_ntier_restore_executes(self, analysis):
        memory = compressed_memory_system((LZ4_POINT,))
        snapshot = self._snapshot(analysis, memory)
        result = tiered_restore(snapshot, memory=memory)
        from conftest import make_trace

        n = analysis.n_pages
        trace = make_trace(
            n_pages=n, pages=(0, n // 2, n - 1), counts=(10, 10, 10)
        )
        out = result.vm.execute(trace)
        assert out.counters.total_time_s > 0


def _cohort_calls(memory, monkeypatch) -> tuple[int, int]:
    """Restores and kernel calls one three-seed ``invoke_batch`` makes."""
    import repro.baselines.base as base
    from conftest import tiny_function
    from repro.baselines import DramBaseline

    system = DramBaseline(tiny_function.__wrapped__(), memory=memory)
    calls = {"restore": 0, "kernel": 0}
    restore, kernel = system._invoke_restore, base.execute_cohort

    def counted_restore():
        calls["restore"] += 1
        return restore()

    def counted_kernel(vm, traces):
        calls["kernel"] += 1
        return kernel(vm, traces)

    monkeypatch.setattr(system, "_invoke_restore", counted_restore)
    monkeypatch.setattr(base, "execute_cohort", counted_kernel)
    assert len(system.invoke_batch(1, [0, 1, 2])) == 3
    return calls["restore"], calls["kernel"]


class TestBatchGate:
    """One restore serves a cohort unless restores or slow-tier specs
    can draw from the fault plane."""

    def test_two_tier_default_is_eligible(self, monkeypatch):
        assert _cohort_calls(DEFAULT_MEMORY_SYSTEM, monkeypatch) == (1, 1)

    def test_middle_tiers_are_eligible(self, monkeypatch):
        # The kernel tallies every tier id of the chain, so compressed
        # middle tiers keep the one-restore cohort.
        memory = compressed_memory_system((LZ4_POINT,))
        assert _cohort_calls(memory, monkeypatch) == (1, 1)

    def test_terminal_compressed_tier_without_middle_is_eligible(
        self, monkeypatch
    ):
        # A compressed *slow* tier is still a plain two-tier system: its
        # codec latencies are baked into the TierSpec the kernel reads.
        memory = compressed_memory_system((ZSTD_POINT,), slow=None)
        assert _cohort_calls(memory, monkeypatch) == (1, 1)

    def test_fault_hook_restores_per_seed(self, monkeypatch):
        from repro.faults import FaultInjector

        memory = DEFAULT_MEMORY_SYSTEM.with_fault_hook(FaultInjector())
        assert _cohort_calls(memory, monkeypatch) == (3, 0)
