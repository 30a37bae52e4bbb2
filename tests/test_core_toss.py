"""Tests for the TOSS controller lifecycle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import config
from repro.core.toss import InvocationOutcome, Phase, TossConfig, TossController
from repro.errors import AnalysisError


def controller(function, **cfg_kwargs) -> TossController:
    cfg = TossConfig(
        convergence_window=cfg_kwargs.pop("convergence_window", 3),
        min_profiling_invocations=cfg_kwargs.pop("min_profiling_invocations", 3),
        **cfg_kwargs,
    )
    return TossController(function, cfg=cfg)


def drive_to_tiered(ctl, input_index=3, max_invocations=60):
    outcomes = []
    for _ in range(max_invocations):
        out = ctl.invoke(input_index)
        outcomes.append(out)
        if ctl.phase is Phase.TIERED:
            break
    assert ctl.phase is Phase.TIERED, "controller failed to converge"
    return outcomes


class TestLifecycle:
    def test_phases_in_order(self, tiny_function):
        ctl = controller(tiny_function)
        outcomes = drive_to_tiered(ctl)
        phases = [o.phase for o in outcomes]
        assert phases[0] is Phase.INITIAL
        assert all(p is Phase.PROFILING for p in phases[1:])
        assert outcomes[-1].analysis_generated

    def test_snapshot_artifacts_present(self, tiny_function):
        ctl = controller(tiny_function)
        drive_to_tiered(ctl)
        assert ctl.single_snapshot is not None
        assert ctl.tiered_snapshot is not None
        assert ctl.analysis is not None
        assert 0.0 < ctl.slow_fraction <= 1.0

    def test_tiered_invocations_use_tiered_snapshot(self, tiny_function):
        ctl = controller(tiny_function)
        drive_to_tiered(ctl)
        out = ctl.invoke(3)
        assert out.phase is Phase.TIERED
        assert out.slow_fraction == ctl.slow_fraction
        # TOSS setup: constant, small, includes the tiered-restore base.
        assert out.setup_time_s >= config.VM_STATE_LOAD_S + config.TIERED_RESTORE_BASE_S
        assert out.setup_time_s < 0.02

    def test_profiling_carries_damon_overhead(self, tiny_function):
        """Profiling-phase invocations run ~3 % slower (Section VI-A)."""
        ctl = controller(tiny_function)
        first = ctl.invoke(3)          # initial, no DAMON
        prof = ctl.invoke(3)           # profiling, DAMON attached
        # Same input; profiling pays restore faults + DAMON overhead, so
        # it must be slower than the warm initial execution.
        assert prof.exec_time_s > first.exec_time_s * (1 + config.DAMON_OVERHEAD / 2)

    def test_minimum_profiling_respected(self, tiny_function):
        ctl = controller(tiny_function, min_profiling_invocations=6)
        for _ in range(4):
            ctl.invoke(3)
        assert ctl.phase is Phase.PROFILING

    def test_reprofiling_threshold_must_be_sane(self):
        with pytest.raises(AnalysisError):
            TossConfig(min_profiling_invocations=1)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("n_bins", math.nan),
            ("n_bins", -1),
            ("n_bins", 1.5),
            ("n_bins", True),
            ("convergence_window", -1),
            ("root_seed", -1),
            ("reprofile_bound", math.nan),
            ("reprofile_bound", -1),
            ("reprofile_bound", math.inf),
            ("min_profiling_invocations", math.nan),
            ("degrade_after_failures", 1.5),
            ("degrade_after_failures", True),
        ],
    )
    def test_out_of_domain_field_rejected(self, name, value):
        with pytest.raises(AnalysisError, match=f"TossConfig.{name}"):
            TossConfig(**{name: value})

    def test_numpy_integer_fields_accepted(self):
        cfg = TossConfig(root_seed=np.int64(7), n_bins=np.int32(4))
        assert cfg.root_seed == 7 and cfg.n_bins == 4

    def test_total_time_property(self):
        out = InvocationOutcome(
            phase=Phase.TIERED,
            input_index=0,
            seed=0,
            setup_time_s=0.01,
            exec_time_s=0.5,
            slow_fraction=0.9,
        )
        assert out.total_time_s == pytest.approx(0.51)


class TestBiggestInputSelection:
    def test_biggest_input_drives_bin_profiling(self, tiny_function):
        """Profiling with mixed inputs uses the longest for analysis."""
        ctl = controller(tiny_function)
        ctl.invoke(0)
        for _ in range(40):
            ctl.invoke(3)
            if ctl.phase is Phase.TIERED:
                break
        assert ctl.phase is Phase.TIERED
        assert ctl._biggest_input == 3


class TestReprofilingLoop:
    def test_longer_inputs_trigger_reprofiling(self, tiny_function):
        """After tiering on small inputs, a stream of much longer
        invocations re-enters the profiling phase (Section V-E)."""
        ctl = controller(tiny_function, reprofile_bound=0.001)
        # Converge while only ever seeing the smallest input.
        for _ in range(60):
            ctl.invoke(0)
            if ctl.phase is Phase.TIERED:
                break
        assert ctl.phase is Phase.TIERED
        cycles_before = ctl.profiling_cycles
        # Hammer with the largest input: latencies exceed the profiled LRI.
        for _ in range(200):
            ctl.invoke(3)
            if ctl.phase is Phase.PROFILING:
                break
        assert ctl.phase is Phase.PROFILING
        # And it converges again into a fresh tiered snapshot.
        for _ in range(60):
            ctl.invoke(3)
            if ctl.phase is Phase.TIERED:
                break
        assert ctl.phase is Phase.TIERED
        assert ctl.profiling_cycles == cycles_before + 1

    def test_stable_workload_does_not_reprofile(self, tiny_function):
        ctl = controller(tiny_function)
        drive_to_tiered(ctl)
        for _ in range(30):
            out = ctl.invoke(3)
            assert out.phase is Phase.TIERED


class TestDeterminism:
    def test_same_config_same_outcome(self, tiny_function):
        a = controller(tiny_function)
        b = controller(tiny_function)
        drive_to_tiered(a)
        drive_to_tiered(b)
        assert a.slow_fraction == b.slow_fraction
        assert a.analysis.cost == b.analysis.cost
