"""Tests for the microVM execution engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.errors import VMError
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM, Tier
from repro.vm.microvm import Backing, MicroVM

from conftest import make_trace


def vm_with(n_pages=4096, **kwargs) -> MicroVM:
    return MicroVM(n_pages, **kwargs)


class TestConstruction:
    def test_defaults_all_fast_resident(self):
        vm = vm_with()
        assert vm.tier_pages(Tier.FAST) == 4096
        assert vm._resident.sum() == 4096
        assert vm.slow_fraction == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(VMError):
            MicroVM(100, placement=np.zeros(50, dtype=np.uint8))

    @pytest.mark.parametrize("code", [7, 9, 255])
    def test_unknown_backing_code_rejected(self, code):
        # A code outside Backing used to be accepted: the census counted
        # it in a compressed-pool tier column, or (255) failed inside
        # NumPy.  It is rejected up front, as a bad placement is.
        backing = np.zeros(8, dtype=np.uint8)
        backing[3] = code
        with pytest.raises(VMError, match=f"backing code {code}"):
            MicroVM(8, backing=backing)
        MicroVM(8, backing=np.full(8, max(Backing), dtype=np.uint8))

    def test_arrays_are_copied(self):
        placement = np.zeros(100, dtype=np.uint8)
        vm = MicroVM(100, placement=placement)
        placement[:] = 1
        assert vm.tier_pages(Tier.SLOW) == 0


class TestExecutionTiming:
    def test_all_fast_matches_analytic(self):
        trace = make_trace(pages=(0, 1), counts=(500, 500), cpu_time_s=0.001)
        res = vm_with().execute(trace)
        lat = DEFAULT_MEMORY_SYSTEM.fast.load_latency_s
        assert res.time_s == pytest.approx(0.001 + 1000 * lat)

    def test_slow_placement_slower(self):
        trace = make_trace(pages=(0, 1), counts=(50_000, 50_000), cpu_time_s=0.001)
        fast_t = vm_with().execute(trace).time_s
        slow = np.full(4096, int(Tier.SLOW), dtype=np.uint8)
        slow_t = vm_with(placement=slow).execute(trace).time_s
        assert slow_t > fast_t
        ratio = (300 / 80)
        # Loads only (store_fraction 0): the stall ratio is the latency ratio.
        assert (slow_t - 0.001) / (fast_t - 0.001) == pytest.approx(ratio, rel=0.01)

    def test_store_fraction_increases_slow_time(self):
        slow = np.full(4096, int(Tier.SLOW), dtype=np.uint8)
        loads = make_trace(pages=(0,), counts=(100_000,), store_fraction=0.0)
        stores = make_trace(pages=(0,), counts=(100_000,), store_fraction=1.0)
        t_loads = vm_with(placement=slow).execute(loads).time_s
        t_stores = vm_with(placement=slow).execute(stores).time_s
        assert t_stores > t_loads

    def test_random_fraction_penalises_slow_only(self):
        slow = np.full(4096, int(Tier.SLOW), dtype=np.uint8)
        serial = make_trace(pages=(0,), counts=(100_000,), random_fraction=0.0)
        random_ = make_trace(pages=(0,), counts=(100_000,), random_fraction=1.0)
        assert (
            vm_with(placement=slow).execute(random_).time_s
            > vm_with(placement=slow).execute(serial).time_s
        )
        assert vm_with().execute(random_).time_s == pytest.approx(
            vm_with().execute(serial).time_s
        )

    def test_counters_track_tiers(self):
        placement = np.zeros(4096, dtype=np.uint8)
        placement[100:] = int(Tier.SLOW)
        trace = make_trace(pages=(0, 200), counts=(30, 70))
        res = vm_with(placement=placement).execute(trace)
        assert res.counters.fast_accesses == 30
        assert res.counters.slow_accesses == 70

    def test_trace_size_mismatch_rejected(self):
        with pytest.raises(VMError):
            vm_with(100).execute(make_trace(n_pages=200))


class TestFaults:
    def test_resident_backing_no_faults(self):
        res = vm_with().execute(make_trace())
        assert res.counters.minor_faults == 0
        assert res.counters.major_faults == 0

    def test_zero_backing_minor_faults(self):
        backing = np.full(4096, int(Backing.ZERO), dtype=np.uint8)
        res = vm_with(backing=backing).execute(make_trace(pages=(0, 1, 2), counts=(1, 1, 1)))
        assert res.counters.minor_faults == 3

    def test_dax_slow_minor_faults_no_io(self):
        backing = np.full(4096, int(Backing.DAX_SLOW), dtype=np.uint8)
        res = vm_with(backing=backing).execute(make_trace(pages=(5,), counts=(1,)))
        assert res.counters.minor_faults == 1
        assert res.demand.ssd_ops == 0

    def test_pmem_copy_costs_more_than_minor(self):
        pages = tuple(range(100))
        counts = tuple([1] * 100)
        copy_backing = np.full(4096, int(Backing.PMEM_COPY), dtype=np.uint8)
        zero_backing = np.full(4096, int(Backing.ZERO), dtype=np.uint8)
        t_copy = vm_with(backing=copy_backing).execute(
            make_trace(pages=pages, counts=counts)
        ).time_s
        t_zero = vm_with(backing=zero_backing).execute(
            make_trace(pages=pages, counts=counts)
        ).time_s
        assert t_copy > t_zero

    def test_ssd_backing_major_faults_with_readahead(self):
        backing = np.full(4096, int(Backing.SSD_FILE), dtype=np.uint8)
        pages = tuple(range(18))  # sequential: readahead turns most into minors
        vm = vm_with(backing=backing)
        res = vm.execute(make_trace(pages=pages, counts=tuple([1] * 18)))
        assert res.counters.major_faults >= 1
        assert res.counters.major_faults < 18
        assert res.counters.major_faults + res.counters.minor_faults == 18

    def test_uffd_backing_no_readahead(self):
        backing = np.full(4096, int(Backing.UFFD_SSD), dtype=np.uint8)
        pages = tuple(range(18))
        res = vm_with(backing=backing).execute(
            make_trace(pages=pages, counts=tuple([1] * 18))
        )
        assert res.counters.major_faults == 18
        assert res.demand.uffd_ops == 18

    def test_faults_once_per_page(self):
        backing = np.full(4096, int(Backing.ZERO), dtype=np.uint8)
        vm = vm_with(backing=backing)
        trace = make_trace(pages=(1, 2), counts=(1, 1), n_epochs=3)
        res = vm.execute(trace)
        assert res.counters.minor_faults == 2  # not 6

    def test_warm_reexecution_no_faults(self):
        backing = np.full(4096, int(Backing.SSD_FILE), dtype=np.uint8)
        vm = vm_with(backing=backing)
        trace = make_trace(pages=(0, 1), counts=(1, 1))
        first = vm.execute(trace)
        second = vm.execute(trace)
        assert first.counters.major_faults > 0
        assert second.counters.major_faults == 0
        assert second.time_s < first.time_s


class TestDemandVector:
    def test_demand_fields_consistent(self):
        placement = np.zeros(4096, dtype=np.uint8)
        placement[2000:] = int(Tier.SLOW)
        trace = make_trace(
            pages=(0, 3000), counts=(1000, 2000), store_fraction=0.25
        )
        res = vm_with(placement=placement).execute(trace)
        d = res.demand
        assert d.slow_read_ops == pytest.approx(2000 * 0.75)
        assert d.slow_write_ops == pytest.approx(2000 * 0.25)
        assert d.fast_bytes == 1000 * config.CACHELINE_BYTES
        assert d.nominal_time_s == pytest.approx(res.time_s)

    def test_versions_bumped_on_store(self):
        vm = vm_with()
        v0 = vm.page_versions[0]
        vm.execute(make_trace(pages=(0,), counts=(5,), store_fraction=0.5))
        assert vm.page_versions[0] == v0 + 1

    def test_versions_untouched_on_pure_loads(self):
        vm = vm_with()
        v0 = vm.page_versions.copy()
        vm.execute(make_trace(pages=(0,), counts=(5,), store_fraction=0.0))
        np.testing.assert_array_equal(vm.page_versions, v0)

    def test_epoch_records_returned(self):
        res = vm_with().execute(make_trace(n_epochs=4))
        assert len(res.epoch_records) == 4
        assert all(r.duration_s > 0 for r in res.epoch_records)
        assert sum(r.duration_s for r in res.epoch_records) == pytest.approx(
            res.time_s
        )
