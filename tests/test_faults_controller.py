"""Chaos tests for the TOSS controller: graceful degradation under faults."""

from __future__ import annotations

import pytest

from repro.core.telemetry import EventKind
from repro.core.toss import Phase, TossConfig, TossController
from repro.faults import (
    ZERO_PLAN,
    FaultInjector,
    FaultPlan,
    ProfilerFaultSpec,
    SnapshotFaultSpec,
    StorageFaultSpec,
    TierFaultSpec,
)
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM

from telemetry_events import kind_of, milestones, observe_calls


def controller(function, plan=None, **cfg_kwargs):
    cfg = TossConfig(
        convergence_window=cfg_kwargs.pop("convergence_window", 3),
        min_profiling_invocations=cfg_kwargs.pop("min_profiling_invocations", 3),
        **cfg_kwargs,
    )
    memory = DEFAULT_MEMORY_SYSTEM
    if plan is not None:
        memory = memory.with_fault_hook(FaultInjector(plan))
    ctl = TossController(function, memory=memory, cfg=cfg)
    return ctl, observe_calls(ctl, "invoke")


def drive_to_tiered(ctl, input_index=3, max_invocations=60):
    outcomes = []
    for _ in range(max_invocations):
        outcomes.append(ctl.invoke(input_index))
        if ctl.phase is Phase.TIERED:
            break
    assert ctl.phase is Phase.TIERED, "controller failed to converge"
    return outcomes


class TestCorruptionDegradation:
    def test_corruption_falls_back_and_degrades_immediately(self, tiny_function):
        plan = FaultPlan(snapshot=SnapshotFaultSpec(corruption_rate=1.0))
        ctl, tracer = controller(tiny_function, plan)
        drive_to_tiered(ctl)
        out = ctl.invoke(3)
        # Served via the lazy fallback: all-DRAM, one absorbed failure.
        assert out.phase is Phase.TIERED
        assert out.degraded
        assert out.failures == 1
        assert out.slow_fraction == 0.0
        assert out.exec_time_s > 0.0
        # Corruption is unrecoverable damage: degrade on the first hit,
        # regardless of degrade_after_failures.
        assert ctl.phase is Phase.PROFILING
        assert ctl.tiered_snapshot is None
        assert ctl.restore_failures == 1
        fallbacks = milestones(tracer, kind=EventKind.FALLBACK_RESTORE)
        assert len(fallbacks) == 1
        assert fallbacks[0].attrs["error"] == "SnapshotCorruptionError"
        degradations = milestones(tracer, kind=EventKind.PHASE_DEGRADED)
        assert len(degradations) == 1
        assert degradations[0].attrs["transition"] == "tiered->profiling"
        assert degradations[0].attrs["reason"] == "snapshot-corruption"
        # The fallback source (single-tier file) survived the corruption.
        ctl.single_snapshot.verify()

    def test_degraded_function_regrows_a_tiered_snapshot(self, tiny_function):
        plan = FaultPlan(snapshot=SnapshotFaultSpec(corruption_rate=1.0))
        ctl, tracer = controller(tiny_function, plan)
        drive_to_tiered(ctl)
        ctl.invoke(3)  # corruption -> back to profiling
        assert ctl.phase is Phase.PROFILING
        # Faults clear; profiling re-runs and regenerates the snapshot
        # from the intact single-tier file.
        ctl.memory.fault_hook.plan = ZERO_PLAN
        drive_to_tiered(ctl)
        assert ctl.tiered_snapshot is not None
        ctl.tiered_snapshot.verify()
        assert ctl.slow_fraction > 0.0


class TestTransientFailureDegradation:
    def test_degrades_after_consecutive_failures(self, tiny_function):
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((0.0, 9e9),)))
        ctl, tracer = controller(
            tiny_function, plan, degrade_after_failures=2
        )
        drive_to_tiered(ctl)
        first = ctl.invoke(3)
        assert first.failures == 1 and first.degraded
        assert ctl.phase is Phase.TIERED  # one failure tolerated
        second = ctl.invoke(3)
        assert second.failures == 1
        assert ctl.phase is Phase.PROFILING
        assert ctl.tiered_snapshot is None
        degradations = milestones(tracer, kind=EventKind.PHASE_DEGRADED)
        assert len(degradations) == 1
        assert degradations[0].attrs["reason"] == "repeated-failures"
        assert degradations[0].attrs["failures"] == 2
        assert ctl.restore_failures == 2

    def test_success_resets_the_consecutive_counter(self, tiny_function):
        # Outage for t in [0, 10); the memory's injector clock is
        # advanced manually the way the platform would.
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((0.0, 10.0),)))
        ctl, tracer = controller(
            tiny_function, plan, degrade_after_failures=2
        )
        drive_to_tiered(ctl)
        ctl.memory.fault_hook.advance_to(5.0)
        assert ctl.invoke(3).failures == 1  # inside the outage
        ctl.memory.fault_hook.advance_to(15.0)
        assert ctl.invoke(3).failures == 0  # outage over: clean restore
        assert ctl.phase is Phase.TIERED
        assert milestones(tracer, kind=EventKind.PHASE_DEGRADED) == []


class TestRetriesAndBackpressure:
    def test_restore_retries_recover_and_are_reported(self, tiny_function):
        plan = FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=0.9, retry_success_rate=1.0)
        )
        ctl, tracer = controller(tiny_function, plan)
        drive_to_tiered(ctl)
        out = ctl.invoke(3)
        assert out.retries > 0
        assert out.failures == 0
        assert not out.degraded  # recovered in place, still tiered-served
        assert out.slow_fraction == ctl.slow_fraction > 0.0
        assert ctl.phase is Phase.TIERED
        retried = milestones(tracer, kind=EventKind.RESTORE_RETRIED)
        assert len(retried) == 1
        assert retried[0].attrs["retries"] == out.retries

    def test_backpressure_slows_execution_and_marks_degraded(self, tiny_function):
        # The window opens only after profiling has converged (the
        # injector clock sits at 0 until advanced), so both controllers
        # analyse and place identically; only the tiered serving differs.
        plan = FaultPlan(
            tier=TierFaultSpec(backpressure_windows=((100.0, 9e9, 8.0),))
        )
        faulted, tracer = controller(tiny_function, plan)
        clean, _ = controller(tiny_function)
        drive_to_tiered(faulted)
        drive_to_tiered(clean)
        faulted.memory.fault_hook.advance_to(100.0)
        out_f = faulted.invoke(3)
        out_c = clean.invoke(3)
        assert out_f.degraded and not out_c.degraded
        assert out_f.failures == 0  # still served from the slow tier
        assert out_f.slow_fraction == out_c.slow_fraction > 0.0
        # Slow-tier accesses pay the multiplied latency end to end.
        assert out_f.exec_time_s > out_c.exec_time_s
        events = milestones(tracer, kind=EventKind.TIER_BACKPRESSURE)
        assert len(events) == 1
        assert events[0].attrs["multiplier"] == 8.0


class TestProfilerSampleLoss:
    def test_sample_loss_extends_profiling(self, tiny_function):
        plan = FaultPlan(profiler=ProfilerFaultSpec(sample_loss_rate=1.0))
        ctl, tracer = controller(tiny_function, plan)
        for _ in range(10):
            ctl.invoke(3)
        # Every DAMON file was lost: the pattern never folds anything in,
        # so profiling cannot converge.
        assert ctl.phase is Phase.PROFILING
        assert ctl.pattern.stable_invocations == 0
        extended = [
            e
            for e in milestones(tracer, kind=EventKind.PHASE_DEGRADED)
            if e.attrs["transition"] == "profiling-extended"
        ]
        assert len(extended) == 9  # every profiling invocation after initial
        assert all(
            e.attrs["reason"] == "profiler-sample-loss" for e in extended
        )
        # Loss clears: profiling completes from where it left off.
        ctl.memory.fault_hook.plan = ZERO_PLAN
        drive_to_tiered(ctl)

    def test_partial_sample_loss_still_converges(self, tiny_function):
        plan = FaultPlan(
            profiler=ProfilerFaultSpec(sample_loss_rate=0.3), seed=5
        )
        lossy, _ = controller(tiny_function, plan)
        clean, _ = controller(tiny_function)
        n_lossy = len(drive_to_tiered(lossy))
        n_clean = len(drive_to_tiered(clean))
        assert n_lossy >= n_clean
        assert lossy.tiered_snapshot is not None


class TestZeroPlanController:
    def test_zero_injector_is_invisible(self, tiny_function):
        faulted, tracer = controller(
            tiny_function, FaultPlan()
        )
        clean, _ = controller(tiny_function)
        for _ in range(12):
            out_f = faulted.invoke(3)
            out_c = clean.invoke(3)
            assert out_f == out_c
        assert faulted.phase is clean.phase
        kinds = {kind_of(e.name) for e in milestones(tracer)}
        assert EventKind.PHASE_DEGRADED not in kinds
        assert EventKind.FALLBACK_RESTORE not in kinds


def test_degrade_after_failures_validated():
    with pytest.raises(Exception) as info:
        TossConfig(degrade_after_failures=0)
    from repro.errors import AnalysisError

    assert isinstance(info.value, AnalysisError)
