"""Tests for the comparison systems."""

from __future__ import annotations

import pytest

from repro.baselines import (
    DramBaseline,
    FaasnapSystem,
    ReapSystem,
    TossSystem,
    VanillaLazy,
)
from repro.errors import SnapshotError


class TestDramBaseline:
    def test_no_setup_no_faults(self, tiny_function):
        out = DramBaseline(tiny_function).invoke(3, 0)
        assert out.setup_time_s == 0.0
        assert out.execution.counters.major_faults == 0
        assert out.execution.counters.slow_accesses == 0


class TestVanillaLazy:
    def test_small_setup_faulting_execution(self, tiny_function):
        out = VanillaLazy(tiny_function).invoke(3, 0)
        assert 0 < out.setup_time_s < 0.01
        assert out.execution.counters.major_faults > 0

    def test_each_invocation_cold(self, tiny_function):
        sys = VanillaLazy(tiny_function)
        a = sys.invoke(3, 0)
        b = sys.invoke(3, 0)
        assert b.execution.counters.major_faults == pytest.approx(
            a.execution.counters.major_faults, rel=0.2
        )


class TestReap:
    def test_same_input_executes_fault_free(self, tiny_function):
        sys = ReapSystem(tiny_function, snapshot_input=3)
        out = sys.invoke(3, 0)
        # Allocation jitter causes only a tiny miss set between two runs
        # of the same input.
        assert out.execution.counters.major_faults < 0.1 * sys.ws_pages

    def test_small_snapshot_input_faults_heavily(self, tiny_function):
        sys = ReapSystem(tiny_function, snapshot_input=0)
        out = sys.invoke(3, 0)
        touched = tiny_function.ws_pages(3)
        assert out.execution.counters.major_faults > 0.5 * (
            touched - tiny_function.ws_pages(0)
        )

    def test_setup_grows_with_snapshot_input(self, tiny_function):
        s0 = ReapSystem(tiny_function, snapshot_input=0).invoke(0).setup_time_s
        s3 = ReapSystem(tiny_function, snapshot_input=3).invoke(0).setup_time_s
        assert s3 > s0

    def test_invalid_snapshot_input(self, tiny_function):
        with pytest.raises(SnapshotError):
            ReapSystem(tiny_function, snapshot_input=9)


class TestFaasnap:
    def test_mincore_ws_inflated(self, tiny_function):
        sys = FaasnapSystem(tiny_function, snapshot_input=2)
        assert sys.inflation > 1.0
        assert sys.ws_pages > sys.true_ws_pages

    def test_faasnap_setup_exceeds_reap_same_input(self, tiny_function):
        """The inflated WS buys a longer prefetch (Section III-C)."""
        reap = ReapSystem(tiny_function, snapshot_input=2)
        faas = FaasnapSystem(tiny_function, snapshot_input=2)
        assert (
            faas.invoke(2, 0).setup_time_s >= reap.invoke(2, 0).setup_time_s
        )


class TestTossSystem:
    @pytest.fixture(scope="class")
    def toss(self, request):
        function = request.getfixturevalue("tiny_function")
        return TossSystem(function, convergence_window=3)

    def test_reaches_tiered_state(self, tiny_function):
        sys = TossSystem(tiny_function, convergence_window=3)
        assert sys.tiered_snapshot is not None
        assert 0.5 < sys.slow_fraction <= 1.0

    def test_invocation_has_constant_setup(self, tiny_function):
        sys = TossSystem(tiny_function, convergence_window=3)
        setups = {round(sys.invoke(i, 0).setup_time_s, 9) for i in range(4)}
        assert len(setups) == 1

    def test_no_storage_io(self, tiny_function):
        sys = TossSystem(tiny_function, convergence_window=3)
        out = sys.invoke(3, 0)
        assert out.execution.demand.ssd_ops == 0

    def test_profiling_inputs_validated(self, tiny_function):
        with pytest.raises(Exception):
            TossSystem(tiny_function, profiling_inputs=())

    def test_slowdown_threshold_lowers_slowdown(self, tiny_function):
        free = TossSystem(tiny_function, convergence_window=3)
        capped = TossSystem(
            tiny_function, convergence_window=3, slowdown_threshold=0.002
        )
        assert (
            capped.analysis.expected_slowdown
            <= free.analysis.expected_slowdown + 1e-9
        )
