"""Tests for the shared-resource contention model."""

from __future__ import annotations

import pytest

from repro import config
from repro.errors import ConfigError
from repro.memsim.bandwidth import ContentionModel, TierDemand
from repro.memsim.storage import OPTANE_SSD_SPEC
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM


def model() -> ContentionModel:
    return ContentionModel(DEFAULT_MEMORY_SYSTEM, OPTANE_SSD_SPEC)


class TestTierDemand:
    def test_nominal_time_sums_components(self):
        d = TierDemand(
            cpu_time_s=1.0,
            fast_stall_s=0.1,
            slow_read_stall_s=0.2,
            slow_write_stall_s=0.3,
            ssd_stall_s=0.4,
            uffd_stall_s=0.5,
        )
        assert d.nominal_time_s == pytest.approx(2.5)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            TierDemand(cpu_time_s=-1.0)
        with pytest.raises(ConfigError):
            TierDemand(cpu_time_s=1.0, ssd_ops=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cpu_time_s": float("nan")},
            {"cpu_time_s": float("inf")},
            {"cpu_time_s": 1.0, "slow_read_stall_s": float("nan")},
            {"cpu_time_s": 1.0, "uffd_ops": float("inf")},
        ],
    )
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TierDemand(**kwargs)


class TestContention:
    def test_empty_demands(self):
        assert model().contended_times([]) == []

    def test_single_light_demand_unchanged(self):
        d = TierDemand(cpu_time_s=1.0, slow_read_stall_s=0.1, slow_read_ops=1e5)
        times = model().contended_times([d])
        # M/M/1 inflation is 1/(1-rho): slightly above 1 even at light load.
        assert times[0] == pytest.approx(d.nominal_time_s, rel=1e-2)
        assert times[0] >= d.nominal_time_s

    def test_cpu_time_never_inflated(self):
        d = TierDemand(cpu_time_s=1.0)
        times = model().contended_times([d] * 20)
        assert all(t == pytest.approx(1.0) for t in times)

    def test_saturation_inflates(self):
        # Offered slow-read rate of 10x the capacity must slow things down.
        ops = config.PMEM_READ_OPS_CAP * 10
        d = TierDemand(cpu_time_s=0.1, slow_read_stall_s=0.9, slow_read_ops=ops)
        t = model().contended_times([d])[0]
        assert t > 2 * d.nominal_time_s

    def test_monotone_in_concurrency(self):
        d = TierDemand(
            cpu_time_s=0.2,
            slow_write_stall_s=0.2,
            slow_write_ops=config.PMEM_WRITE_OPS_CAP * 0.1,
        )
        times = [
            model().contended_times([d] * c)[0] for c in (1, 5, 10, 20)
        ]
        assert times == sorted(times)

    def test_throughput_conserved_at_saturation(self):
        # When a resource saturates, aggregate service rate ~= capacity.
        ops = config.UFFD_HANDLER_OPS_CAP  # each invocation wants the cap
        d = TierDemand(
            cpu_time_s=0.01,
            uffd_stall_s=ops * config.UFFD_FAULT_LATENCY_S,
            uffd_ops=ops,
        )
        n = 10
        times = model().contended_times([d] * n)
        rate = sum(ops / t for t in times)
        # The M/M/1 closed loop settles below capacity (queueing delay
        # throttles the offered load before full saturation) but must
        # never serve more than the device can.
        assert rate <= config.UFFD_HANDLER_OPS_CAP * (1 + 1e-6)
        assert rate >= 0.5 * config.UFFD_HANDLER_OPS_CAP

    def test_heterogeneous_demands_keep_order(self):
        light = TierDemand(cpu_time_s=0.1)
        heavy = TierDemand(
            cpu_time_s=0.1,
            slow_write_stall_s=1.0,
            slow_write_ops=config.PMEM_WRITE_OPS_CAP,
        )
        times = model().contended_times([light, heavy])
        assert times[0] < times[1]

    def test_inflation_factors_identify_bottleneck(self):
        ops = config.PMEM_WRITE_OPS_CAP * 3
        d = TierDemand(
            cpu_time_s=0.1, slow_write_stall_s=0.5, slow_write_ops=ops
        )
        factors = model().inflation_factors([d] * 4)
        assert factors["slow_write"] > 1.5
        assert factors["fast"] == pytest.approx(1.0)

    def test_inflation_factors_empty(self):
        assert model().inflation_factors([]) == {
            "fast": 1.0,
            "slow_read": 1.0,
            "slow_write": 1.0,
            "ssd": 1.0,
            "uffd": 1.0,
        }

    def test_inflation_bounded(self):
        d = TierDemand(
            cpu_time_s=1e-6,
            ssd_stall_s=1.0,
            ssd_ops=config.SSD_RANDOM_READ_IOPS * 100,
        )
        factors = model().inflation_factors([d] * 20)
        assert factors["ssd"] <= config.MAX_QUEUE_INFLATION

