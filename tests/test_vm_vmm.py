"""Tests for VM lifecycle management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.vm.snapshot import ReapSnapshot
from repro.vm.vmm import VMM


@pytest.fixture
def vmm() -> VMM:
    return VMM()


class TestBootAndRun:
    def test_boot_runs_to_completion(self, vmm, tiny_function):
        boot = vmm.boot_and_run(tiny_function, 0, 0)
        assert boot.execution.time_s > 0
        assert boot.vm.n_pages == tiny_function.n_pages
        # DRAM-only: no slow accesses.
        assert boot.execution.counters.slow_accesses == 0

    def test_boot_deterministic(self, vmm, tiny_function):
        a = vmm.boot_and_run(tiny_function, 1, 5)
        b = VMM().boot_and_run(tiny_function, 1, 5)
        assert a.execution.time_s == pytest.approx(b.execution.time_s)


class TestSnapshotCapture:
    def test_capture_copies_versions(self, vmm, tiny_function):
        boot = vmm.boot_and_run(tiny_function, 0, 0)
        snap = vmm.capture_snapshot(boot.vm)
        np.testing.assert_array_equal(snap.page_versions, boot.vm.page_versions)
        # Later mutation of the VM must not change the snapshot.
        boot.vm.page_versions[0] += 1
        assert snap.page_versions[0] != boot.vm.page_versions[0]

    def test_reap_capture_records_ws(self, vmm, tiny_function):
        snap = vmm.capture_reap_snapshot(tiny_function, 2)
        assert isinstance(snap, ReapSnapshot)
        assert snap.ws_pages == tiny_function.ws_pages(2)
        assert snap.snapshot_input == 2


class TestRestoreDispatch:
    def test_named_strategies(self, vmm, tiny_function):
        boot = vmm.boot_and_run(tiny_function, 0, 0)
        base = vmm.capture_snapshot(boot.vm)
        reap = vmm.capture_reap_snapshot(tiny_function, 0)
        assert vmm.restore(base, "warm").strategy == "warm"
        assert vmm.restore(base, "lazy").strategy == "lazy"
        assert vmm.restore(reap, "reap").strategy == "reap"

    def test_strategy_is_required(self, vmm, tiny_function):
        boot = vmm.boot_and_run(tiny_function, 0, 0)
        base = vmm.capture_snapshot(boot.vm)
        with pytest.raises(TypeError):
            vmm.restore(base)

    def test_unknown_strategy_rejected(self, vmm, tiny_function):
        boot = vmm.boot_and_run(tiny_function, 0, 0)
        base = vmm.capture_snapshot(boot.vm)
        with pytest.raises(ValueError):
            vmm.restore(base, "bogus")

    def test_warm_on_reap_unwraps_base(self, vmm, tiny_function):
        reap = vmm.capture_reap_snapshot(tiny_function, 0)
        r = vmm.restore(reap, "warm")
        assert r.setup_time_s == 0.0
