"""Tests for the restore strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.memsim.tiers import Tier
from repro.vm.layout import MemoryLayout
from repro.vm.microvm import Backing
from repro.vm.restore import (
    lazy_restore,
    reap_restore,
    tiered_restore,
    warm_restore,
)
from repro.vm.snapshot import ReapSnapshot, SingleTierSnapshot, TieredSnapshot

from conftest import make_trace

N_PAGES = 4096


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
        base=base_snapshot,
        layout=MemoryLayout.from_placement(placement),
        expected_slowdown=1.05,
    )


class TestWarm:
    def test_zero_setup_everything_resident(self, base_snapshot):
        r = warm_restore(base_snapshot)
        assert r.setup_time_s == 0.0
        assert r.vm._resident.sum() == N_PAGES

    def test_versions_restored(self, base_snapshot):
        r = warm_restore(base_snapshot)
        np.testing.assert_array_equal(
            r.vm.page_versions, base_snapshot.page_versions
        )


class TestLazy:
    def test_setup_constant_and_small(self, base_snapshot):
        r = lazy_restore(base_snapshot)
        assert r.setup_time_s == pytest.approx(
            config.VM_STATE_LOAD_S + config.MMAP_REGION_SETUP_S
        )

    def test_pages_ssd_backed(self, base_snapshot):
        r = lazy_restore(base_snapshot)
        assert (r.vm.backing == int(Backing.SSD_FILE)).all()
        assert r.vm._resident.sum() == 0

    def test_execution_pays_major_faults(self, base_snapshot):
        r = lazy_restore(base_snapshot)
        res = r.vm.execute(make_trace(n_pages=N_PAGES, pages=(0, 1000), counts=(1, 1)))
        assert res.counters.major_faults > 0


class TestReap:
    def test_setup_scales_with_ws(self, base_snapshot):
        small = ReapSnapshot(
            base=base_snapshot,
            ws_mask=np.arange(N_PAGES) < 100,
        )
        big = ReapSnapshot(
            base=base_snapshot,
            ws_mask=np.arange(N_PAGES) < 3000,
        )
        assert reap_restore(big).setup_time_s > reap_restore(small).setup_time_s

    def test_ws_resident_rest_uffd(self, reap_snapshot):
        r = reap_restore(reap_snapshot)
        assert r.vm._resident.sum() == 512
        assert (r.vm.backing[512:] == int(Backing.UFFD_SSD)).all()

    def test_in_ws_execution_fault_free(self, reap_snapshot):
        r = reap_restore(reap_snapshot)
        res = r.vm.execute(
            make_trace(n_pages=N_PAGES, pages=(0, 100, 511), counts=(1, 1, 1))
        )
        assert res.counters.major_faults == 0

    def test_out_of_ws_execution_uffd_faults(self, reap_snapshot):
        r = reap_restore(reap_snapshot)
        res = r.vm.execute(
            make_trace(n_pages=N_PAGES, pages=(512, 600), counts=(1, 1))
        )
        assert res.counters.major_faults == 2
        assert res.demand.uffd_ops == 2


class TestTiered:
    def test_setup_independent_of_snapshot_size(self, tiered_snapshot):
        r = tiered_restore(tiered_snapshot)
        expected = (
            config.VM_STATE_LOAD_S
            + config.TIERED_RESTORE_BASE_S
            + tiered_snapshot.layout.parse_time_s()
            + tiered_snapshot.layout.n_mappings * config.MMAP_REGION_SETUP_S
        )
        assert r.setup_time_s == pytest.approx(expected)
        assert r.n_mappings == 2

    def test_placement_applied(self, tiered_snapshot):
        r = tiered_restore(tiered_snapshot)
        assert r.vm.tier_pages(Tier.SLOW) == N_PAGES - 1024
        assert (r.vm.backing[:1024] == int(Backing.PMEM_COPY)).all()
        assert (r.vm.backing[1024:] == int(Backing.DAX_SLOW)).all()

    def test_no_storage_io_during_execution(self, tiered_snapshot):
        r = tiered_restore(tiered_snapshot)
        res = r.vm.execute(
            make_trace(n_pages=N_PAGES, pages=(0, 2000), counts=(5, 5))
        )
        assert res.demand.ssd_ops == 0
        assert res.counters.major_faults == 0
        assert res.counters.minor_faults == 2

    def test_versions_restored(self, tiered_snapshot):
        r = tiered_restore(tiered_snapshot)
        np.testing.assert_array_equal(
            r.vm.page_versions, tiered_snapshot.base.page_versions
        )


class TestCrossStrategy:
    def test_restore_correctness_identical_contents(
        self, base_snapshot, reap_snapshot, tiered_snapshot
    ):
        """Every strategy restores the same memory image."""
        vms = [
            warm_restore(base_snapshot).vm,
            lazy_restore(base_snapshot).vm,
            reap_restore(reap_snapshot).vm,
            tiered_restore(tiered_snapshot).vm,
        ]
        for vm in vms[1:]:
            np.testing.assert_array_equal(
                vm.page_versions, vms[0].page_versions
            )

    def test_setup_ordering_matches_paper(
        self, base_snapshot, tiered_snapshot
    ):
        """Lazy < TOSS << REAP-with-large-WS (Figure 7's shape)."""
        big_ws = ReapSnapshot(
            base=base_snapshot, ws_mask=np.ones(N_PAGES, dtype=bool)
        )
        lazy_s = lazy_restore(base_snapshot).setup_time_s
        toss_s = tiered_restore(tiered_snapshot).setup_time_s
        reap_s = reap_restore(big_ws).setup_time_s
        assert lazy_s < toss_s < reap_s
