"""Chaos tests for the restore layer: retries, verification, fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    RestoreRetryExhausted,
    SnapshotCorruptionError,
    TierUnavailableError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SnapshotFaultSpec,
    StorageFaultSpec,
    TierFaultSpec,
)
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM, Tier
from repro.pricing.billing import bill_invocation
from repro.vm.layout import MemoryLayout
from repro.vm.restore import (
    lazy_restore,
    reap_restore,
    recovering_restore,
    tiered_restore,
)
from repro.vm.snapshot import ReapSnapshot, SingleTierSnapshot, TieredSnapshot

N_PAGES = 4096


def hooked(injector: FaultInjector):
    """The default memory system with ``injector`` as its fault hook."""
    return DEFAULT_MEMORY_SYSTEM.with_fault_hook(injector)


@pytest.fixture
def base_snapshot() -> SingleTierSnapshot:
    return SingleTierSnapshot(
        n_pages=N_PAGES,
        page_versions=np.arange(1, N_PAGES + 1, dtype=np.uint64),
        label="t",
    )


@pytest.fixture
def reap_snapshot(base_snapshot) -> ReapSnapshot:
    mask = np.zeros(N_PAGES, dtype=bool)
    mask[:512] = True
    return ReapSnapshot(base=base_snapshot, ws_mask=mask, snapshot_input=0)


@pytest.fixture
def tiered_snapshot(base_snapshot) -> TieredSnapshot:
    placement = np.zeros(N_PAGES, dtype=np.uint8)
    placement[1024:] = int(Tier.SLOW)
    return TieredSnapshot(
        base=base_snapshot.copy(),
        layout=MemoryLayout.from_placement(placement),
        expected_slowdown=1.05,
    )


class TestSnapshotChecksums:
    def test_fresh_snapshot_verifies(self, base_snapshot, tiered_snapshot):
        base_snapshot.verify()
        tiered_snapshot.verify()
        assert base_snapshot.corrupt_pages().size == 0

    def test_flipped_version_fails_verification(self, base_snapshot):
        base_snapshot.write_pages([7], base_snapshot.read_pages([7]) ^ np.uint64(1))
        with pytest.raises(SnapshotCorruptionError) as info:
            base_snapshot.verify()
        np.testing.assert_array_equal(info.value.corrupt_pages, [7])

    def test_copy_is_independent(self, base_snapshot):
        clone = base_snapshot.copy()
        clone.write_pages([0], clone.read_pages([0]) ^ np.uint64(1))
        base_snapshot.verify()  # original untouched
        with pytest.raises(SnapshotCorruptionError):
            clone.verify()


class TestReapUnderFaults:
    def test_retries_billed_into_setup(self, reap_snapshot):
        plan = FaultPlan(
            ssd=StorageFaultSpec(
                read_error_rate=0.01,
                retry_success_rate=1.0,
                backoff_base_s=1e-3,
            )
        )
        injector = FaultInjector(plan)
        clean = reap_restore(reap_snapshot)
        faulted = reap_restore(reap_snapshot, memory=hooked(injector))
        assert faulted.retries > 0
        assert faulted.fault_stall_s > 0.0
        assert faulted.setup_time_s == pytest.approx(
            clean.setup_time_s + faulted.fault_stall_s
        )

    def test_retry_budget_exhaustion_raises(self, reap_snapshot):
        plan = FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=0.5, retry_success_rate=0.0)
        )
        with pytest.raises(RestoreRetryExhausted):
            reap_restore(reap_snapshot, memory=hooked(FaultInjector(plan)))

    def test_spikes_flow_through_storage_device(self, reap_snapshot):
        plan = FaultPlan(
            ssd=StorageFaultSpec(latency_spike_rate=1.0, latency_spike_s=5e-3)
        )
        # The spike is drawn from the restore memory's fault hook.
        clean = reap_restore(reap_snapshot)
        spiked = reap_restore(reap_snapshot, memory=hooked(FaultInjector(plan)))
        assert spiked.fault_stall_s == pytest.approx(5e-3)
        assert spiked.setup_time_s == pytest.approx(clean.setup_time_s + 5e-3)


class TestTieredUnderFaults:
    def test_outage_window_blocks_restore(self, tiered_snapshot):
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((10.0, 20.0),)))
        injector = FaultInjector(plan)
        injector.advance_to(15.0)
        with pytest.raises(TierUnavailableError):
            tiered_restore(tiered_snapshot, memory=hooked(injector))
        injector.advance_to(25.0)
        result = tiered_restore(tiered_snapshot, memory=hooked(injector))
        assert result.strategy == "toss"

    def test_corruption_detected_at_restore(self, tiered_snapshot):
        plan = FaultPlan(snapshot=SnapshotFaultSpec(corruption_rate=1.0))
        with pytest.raises(SnapshotCorruptionError):
            tiered_restore(tiered_snapshot, memory=hooked(FaultInjector(plan)))
        # At-rest damage persists: a later fault-free open still fails.
        with pytest.raises(SnapshotCorruptionError):
            tiered_snapshot.verify()

    def test_backpressure_recorded(self, tiered_snapshot):
        plan = FaultPlan(
            tier=TierFaultSpec(backpressure_windows=((0.0, 100.0, 3.0),))
        )
        result = tiered_restore(tiered_snapshot, memory=hooked(FaultInjector(plan)))
        assert result.backpressure == 3.0

    def test_backpressure_hits_count_restores_not_lookups(self, tiered_snapshot):
        # Slow-spec lookups and billing read the multiplier; only a
        # restore that maps through the window counts as a hit.
        plan = FaultPlan(
            tier=TierFaultSpec(backpressure_windows=((0.0, 100.0, 4.0),))
        )
        injector = FaultInjector(plan)
        memory = hooked(injector)
        assert memory.spec(Tier.SLOW).load_latency_s == pytest.approx(
            4.0 * DEFAULT_MEMORY_SYSTEM.slow.load_latency_s
        )
        bill_invocation(
            guest_mb=128.0,
            duration_s=0.5,
            slow_fraction=0.5,
            memory=memory,
            tier_fractions=(0.5, 0.5),
        )
        assert injector.counters["backpressure_hits"] == 0
        tiered_restore(tiered_snapshot, memory=memory)
        assert injector.counters["backpressure_hits"] == 1


class TestRecoveringRestore:
    def test_clean_restore_no_fallback(self, tiered_snapshot):
        result, fault = recovering_restore(tiered_snapshot)
        assert fault is None
        assert not result.fallback
        assert result.strategy == "toss"

    def test_fallback_to_lazy_on_corruption(self, base_snapshot, tiered_snapshot):
        plan = FaultPlan(snapshot=SnapshotFaultSpec(corruption_rate=1.0))
        result, fault = recovering_restore(
            tiered_snapshot,
            memory=hooked(FaultInjector(plan)),
            fallback_source=base_snapshot,
        )
        assert isinstance(fault, SnapshotCorruptionError)
        assert result.fallback
        assert result.strategy == "lazy"
        # The fallback restores the intact single-tier file, not the
        # damaged tier files.
        np.testing.assert_array_equal(
            result.vm.page_versions, base_snapshot.page_versions
        )

    def test_fallback_on_outage_and_retry_exhaustion(
        self, base_snapshot, reap_snapshot, tiered_snapshot
    ):
        outage = FaultPlan(tier=TierFaultSpec(outage_windows=((0.0, 9e9),)))
        result, fault = recovering_restore(
            tiered_snapshot, memory=hooked(FaultInjector(outage))
        )
        assert isinstance(fault, TierUnavailableError) and result.fallback

        dead_ssd = FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=0.9, retry_success_rate=0.0)
        )
        result, fault = recovering_restore(
            reap_snapshot,
            memory=hooked(FaultInjector(dead_ssd)),
            fallback_source=base_snapshot,
        )
        assert isinstance(fault, RestoreRetryExhausted) and result.fallback


class TestZeroFaultIdentity:
    def test_zero_injector_restores_identical(
        self, base_snapshot, reap_snapshot, tiered_snapshot
    ):
        zero = FaultInjector(FaultPlan())
        for fn, snap in (
            (lazy_restore, base_snapshot),
            (reap_restore, reap_snapshot),
            (tiered_restore, tiered_snapshot),
        ):
            if fn is lazy_restore:
                clean, faulty = fn(snap), fn(snap)
            else:
                clean, faulty = fn(snap), fn(snap, memory=hooked(zero))
            assert clean.setup_time_s == faulty.setup_time_s
            assert clean.retries == faulty.retries == 0
            assert not faulty.fallback
