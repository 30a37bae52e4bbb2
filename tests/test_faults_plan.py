"""Tests for the fault plan / injector plane itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults import (
    ZERO_PLAN,
    BitRotSpec,
    FaultInjector,
    FaultPlan,
    HostFaultSpec,
    ProfilerFaultSpec,
    SnapshotFaultSpec,
    StorageFaultSpec,
    TierFaultSpec,
)
from repro.vm.snapshot import SingleTierSnapshot


class TestPlanValidation:
    def test_zero_plan_is_zero(self):
        assert ZERO_PLAN.is_zero
        assert FaultPlan().is_zero

    def test_any_domain_makes_plan_nonzero(self):
        assert not FaultPlan(ssd=StorageFaultSpec(read_error_rate=0.1)).is_zero
        assert not FaultPlan(
            tier=TierFaultSpec(outage_windows=((1.0, 2.0),))
        ).is_zero
        assert not FaultPlan(
            snapshot=SnapshotFaultSpec(corruption_rate=0.5)
        ).is_zero
        assert not FaultPlan(
            profiler=ProfilerFaultSpec(sample_loss_rate=0.5)
        ).is_zero

    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            StorageFaultSpec(read_error_rate=1.5)
        with pytest.raises(ConfigError):
            SnapshotFaultSpec(corruption_rate=-0.1)
        with pytest.raises(ConfigError):
            ProfilerFaultSpec(sample_loss_rate=2.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            (rate, bad)
            for rate in (
                "dram_rate_per_page_s",
                "pmem_rate_per_page_s",
                "ssd_rate_per_page_s",
                "latent_sector_rate_per_s",
            )
            for bad in (float("nan"), float("inf"))
        ]
        + [
            (pages, bad)
            for pages in ("latent_sector_pages", "torn_write_pages")
            for bad in (2.5, True)
        ],
    )
    def test_bitrot_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            BitRotSpec(**{field: value})

    def test_windows_validated(self):
        with pytest.raises(ConfigError):
            TierFaultSpec(outage_windows=((5.0, 5.0),))
        with pytest.raises(ConfigError):
            TierFaultSpec(backpressure_windows=((0.0, 1.0, 0.5),))
        with pytest.raises(ConfigError):
            TierFaultSpec(backpressure_windows=((0.0, 1.0, float("nan")),))
        with pytest.raises(ConfigError):
            TierFaultSpec(outage_windows=((0.0, float("inf")),))

    def test_backoff_validated(self):
        with pytest.raises(ConfigError):
            StorageFaultSpec(backoff_base_s=1e-3, backoff_cap_s=1e-4)
        with pytest.raises(ConfigError):
            StorageFaultSpec(max_retries=0)

    def test_retry_success_defaults_to_error_complement(self):
        spec = StorageFaultSpec(read_error_rate=0.2)
        assert spec.effective_retry_success_rate == pytest.approx(0.8)
        pinned = StorageFaultSpec(read_error_rate=0.2, retry_success_rate=0.5)
        assert pinned.effective_retry_success_rate == 0.5


class TestHostFaultSpec:
    def test_host_faults_make_plan_nonzero(self):
        spec = HostFaultSpec(host=0, crash_windows=((1.0, 2.0),))
        assert not spec.is_zero
        assert not FaultPlan(hosts=(spec,)).is_zero
        # A spec with no windows injects nothing.
        assert HostFaultSpec(host=0).is_zero
        assert FaultPlan(hosts=(HostFaultSpec(host=0),)).is_zero

    def test_duplicate_host_specs_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultPlan(
                hosts=(
                    HostFaultSpec(host=1, crash_windows=((1.0, 2.0),)),
                    HostFaultSpec(host=1, partition_windows=((3.0, 4.0),)),
                )
            )

    def test_host_index_and_windows_validated(self):
        with pytest.raises(ConfigError):
            HostFaultSpec(host=-1)
        with pytest.raises(ConfigError):
            HostFaultSpec(host=0, crash_windows=((5.0, 5.0),))
        with pytest.raises(ConfigError):
            HostFaultSpec(host=0, partition_windows=((2.0, 1.0),))

    @pytest.mark.parametrize("field", ["crash_windows", "partition_windows"])
    @pytest.mark.parametrize(
        "window",
        [
            (float("nan"), 1.0),
            (0.3, float("nan")),
            (0.3, float("inf")),
            (float("-inf"), 1.0),
        ],
        ids=["nan-start", "nan-end", "inf-end", "-inf-start"],
    )
    def test_non_finite_window_edges_rejected(self, field, window):
        with pytest.raises(ConfigError, match="finite"):
            HostFaultSpec(host=0, **{field: (window,)})

    def test_down_and_partitioned_are_half_open_intervals(self):
        spec = HostFaultSpec(
            host=0,
            crash_windows=((1.0, 2.0),),
            partition_windows=((3.0, 4.0),),
        )
        assert not spec.down_at(0.5)
        assert spec.down_at(1.0)
        assert spec.down_at(1.999)
        assert not spec.down_at(2.0)
        assert spec.partitioned_at(3.5)
        assert not spec.partitioned_at(4.0)
        # Routable exactly when neither crashed nor partitioned.
        assert spec.routable_at(2.5)
        assert not spec.routable_at(1.5)
        assert not spec.routable_at(3.5)

    def test_crash_overlapping_matches_service_intervals(self):
        spec = HostFaultSpec(host=0, crash_windows=((2.0, 6.0),))
        assert spec.crash_overlapping(1.0, 1.5) is None
        assert spec.crash_overlapping(6.0, 7.0) is None
        # Straddling the start, fully inside, straddling the end.
        assert spec.crash_overlapping(1.9, 2.1) == (2.0, 6.0)
        assert spec.crash_overlapping(3.0, 4.0) == (2.0, 6.0)
        assert spec.crash_overlapping(5.9, 6.5) == (2.0, 6.0)

    def test_plan_host_spec_lookup(self):
        spec = HostFaultSpec(host=2, crash_windows=((1.0, 2.0),))
        plan = FaultPlan(hosts=(spec,))
        assert plan.host_spec(2) is spec
        assert plan.host_spec(0) is None


class TestInjectorDeterminism:
    def _plan(self, seed=7):
        return FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=0.05, latency_spike_rate=0.02),
            snapshot=SnapshotFaultSpec(corruption_rate=0.3),
            profiler=ProfilerFaultSpec(sample_loss_rate=0.3),
            seed=seed,
        )

    def test_same_seed_same_decisions(self):
        a, b = FaultInjector(self._plan()), FaultInjector(self._plan())
        for _ in range(20):
            assert a.draw_read_faults(1000) == b.draw_read_faults(1000)
            assert a.draw_snapshot_corruption() == b.draw_snapshot_corruption()
            assert a.draw_sample_loss() == b.draw_sample_loss()
        assert a.counters == b.counters

    def test_domains_are_independent_streams(self):
        """Extra draws in one domain never shift another domain's stream."""
        a, b = FaultInjector(self._plan()), FaultInjector(self._plan())
        for _ in range(10):
            a.draw_read_faults(1000)  # only a consumes the ssd stream
        seq_a = [a.draw_sample_loss() for _ in range(10)]
        seq_b = [b.draw_sample_loss() for _ in range(10)]
        assert seq_a == seq_b

    def test_zero_plan_never_draws(self):
        inj = FaultInjector()
        assert inj.is_zero
        assert inj.draw_read_faults(10**6) == 0
        assert inj.retry_reads(0).retries == 0
        assert inj.storage_spike_s(10**6) == 0.0
        assert inj.slow_tier_available()
        assert inj.slow_latency_multiplier() == 1.0
        assert not inj.draw_snapshot_corruption()
        assert not inj.draw_sample_loss()
        assert inj._draws == {}  # no stream was ever touched
        assert all(v == 0 for v in inj.counters.values())


class TestRetries:
    def test_backoff_is_capped_exponential(self):
        plan = FaultPlan(
            ssd=StorageFaultSpec(
                read_error_rate=0.5,
                retry_success_rate=0.0,  # never recovers: all retries spent
                max_retries=4,
                backoff_base_s=1e-3,
                backoff_cap_s=4e-3,
            )
        )
        outcome = FaultInjector(plan).retry_reads(1)
        assert outcome.unrecoverable
        assert outcome.retries == 4
        # 1 + 2 + 4 + capped 4 milliseconds
        assert outcome.backoff_s == pytest.approx(11e-3)

    def test_certain_retry_success_recovers(self):
        plan = FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=0.5, retry_success_rate=1.0)
        )
        outcome = FaultInjector(plan).retry_reads(5)
        assert not outcome.unrecoverable
        assert outcome.retries == 5  # one retry per faulted read


def at(inj: FaultInjector, t_s: float) -> FaultInjector:
    inj.advance_to(t_s)
    return inj


class TestTierWindows:
    def test_outage_window_bounds(self):
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((10.0, 20.0),)))
        inj = FaultInjector(plan)
        assert at(inj, 9.99).slow_tier_available()
        assert not at(inj, 10.0).slow_tier_available()
        assert not at(inj, 19.99).slow_tier_available()
        assert at(inj, 20.0).slow_tier_available()

    def test_clock_advancing(self):
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((10.0, 20.0),)))
        inj = FaultInjector(plan)
        assert inj.slow_tier_available()
        inj.advance_to(15.0)
        assert not inj.slow_tier_available()

    def test_backpressure_takes_worst_matching_window(self):
        plan = FaultPlan(
            tier=TierFaultSpec(
                backpressure_windows=((0.0, 50.0, 2.0), (10.0, 20.0, 5.0))
            )
        )
        inj = FaultInjector(plan)
        assert at(inj, 5.0).slow_latency_multiplier() == 2.0
        assert at(inj, 15.0).slow_latency_multiplier() == 5.0
        assert at(inj, 60.0).slow_latency_multiplier() == 1.0


class TestSnapshotCorruption:
    def test_corrupt_snapshot_is_detectable_and_counted(self):
        snap = SingleTierSnapshot(
            n_pages=256,
            page_versions=np.arange(1, 257, dtype=np.uint64),
            label="victim",
        )
        plan = FaultPlan(snapshot=SnapshotFaultSpec(corruption_rate=1.0,
                                                    corrupt_pages=4))
        inj = FaultInjector(plan)
        pages = inj.corrupt_snapshot(snap)
        assert pages.size == 4
        np.testing.assert_array_equal(np.sort(snap.corrupt_pages()),
                                      np.sort(pages))
        assert inj.counters["corrupted_pages"] == 4

