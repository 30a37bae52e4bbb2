"""Platform-level chaos tests: the acceptance sweep for the fault plane.

The platform must serve 100 % of requests under SSD read-error storms and
a slow-tier outage window — every fault absorbed by retry, fallback
restore, or phase degradation — with telemetry and reliability metrics
that agree with the request log.
"""

from __future__ import annotations

import pytest

from repro.core.telemetry import EventKind
from repro.core.toss import Phase, TossConfig
from repro.errors import FaultInjected
from repro.faults import (
    FaultInjector,
    FaultPlan,
    StorageFaultSpec,
    TierFaultSpec,
)
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM
from repro.platform.server import ServerlessPlatform

from telemetry_events import milestones, observe_calls


def chaos_platform(plan, **kwargs):
    memory = DEFAULT_MEMORY_SYSTEM
    if plan is not None:
        memory = memory.with_fault_hook(FaultInjector(plan))
    platform = ServerlessPlatform(
        n_cores=kwargs.pop("n_cores", 4),
        memory=memory,
        toss_cfg=TossConfig(
            convergence_window=3, min_profiling_invocations=3
        ),
        **kwargs,
    )
    return platform, observe_calls(platform, "serve")


class TestChaosSweep:
    @pytest.mark.parametrize("error_rate", [1e-4, 1e-3, 1e-2])
    def test_all_requests_served_under_ssd_errors_and_outage(
        self, tiny_function, error_rate
    ):
        plan = FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=error_rate),
            tier=TierFaultSpec(outage_windows=((1.0, 2.0),)),
        )
        platform, tracer = chaos_platform(plan)
        platform.deploy(tiny_function)
        requests = [(0.05 * i, "tiny", 3) for i in range(60)]
        log = platform.serve(requests)

        # The acceptance bar: every request served, none failed.
        assert len(log) == 60
        assert platform.availability() == 1.0
        assert not any(e.failed for e in log)

        # The outage window was actually crossed and absorbed.
        assert platform.memory.fault_hook.counters["outages_hit"] > 0
        assert sum(e.failures for e in log) > 0

        # Telemetry agrees with the request log, event for event.
        absorbed = [
            e
            for e in milestones(tracer, kind=EventKind.FALLBACK_RESTORE)
            if not e.attrs.get("unserved")
        ]
        assert len(absorbed) == sum(e.failures for e in log)
        retried = milestones(tracer, kind=EventKind.RESTORE_RETRIED)
        assert sum(e.attrs["retries"] for e in retried) == (
            platform.total_retries()
        )


    def test_heavy_error_rate_forces_retries(self, tiny_function):
        plan = FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=1e-2, retry_success_rate=1.0),
            tier=TierFaultSpec(outage_windows=((1.0, 2.0),)),
        )
        platform, _ = chaos_platform(plan)
        platform.deploy(tiny_function)
        log = platform.serve([(0.05 * i, "tiny", 3) for i in range(60)])
        assert platform.availability() == 1.0
        # At 1e-2 over a long tiered stream some reads fault and recover.
        assert platform.total_retries() + sum(e.failures for e in log) > 0

    def test_outage_degrades_then_recovers_to_tiered(self, tiny_function):
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((1.0, 2.0),)))
        platform, tracer = chaos_platform(plan)
        platform.deploy(tiny_function)
        log = platform.serve([(0.05 * i, "tiny", 3) for i in range(80)])
        assert platform.availability() == 1.0
        # Repeated outage failures push the function back to profiling...
        degradations = [
            e
            for e in milestones(tracer, kind=EventKind.PHASE_DEGRADED)
            if e.attrs.get("transition") == "tiered->profiling"
        ]
        assert degradations, "outage never forced a degradation"
        # ... and after the window closes it converges back to tiered.
        assert log[-1].phase is Phase.TIERED
        assert platform.deployments["tiny"].controller.phase is Phase.TIERED

    def test_billing_survives_fallbacks(self, tiny_function):
        """Fallback-served requests ran all-DRAM: billed with no slow
        share and no slowdown."""
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((1.0, 2.0),)))
        platform, _ = chaos_platform(plan)
        platform.deploy(tiny_function)
        log = platform.serve([(0.05 * i, "tiny", 3) for i in range(60)])
        fallback_entries = [e for e in log if e.failures > 0]
        assert fallback_entries
        for entry in fallback_entries:
            assert entry.bill.slow_fraction == 0.0
            assert entry.bill.slowdown == 1.0
            assert entry.bill.tiered_cost == pytest.approx(entry.bill.dram_cost)


class TestUnrecoverableFault:
    def test_platform_survives_an_unserved_request(
        self, tiny_function, monkeypatch
    ):
        platform, tracer = chaos_platform(FaultPlan())
        platform.deploy(tiny_function)
        platform.serve([(0.05 * i, "tiny", 3) for i in range(10)])

        original = ServerlessPlatform._invoke
        calls = {"n": 0}

        def explode_once(self, dep, input_index):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FaultInjected("the whole recovery chain failed")
            return original(self, dep, input_index)

        monkeypatch.setattr(ServerlessPlatform, "_invoke", explode_once)
        log = platform.serve([(10.0 + 0.05 * i, "tiny", 3) for i in range(5)])
        failed = [e for e in log if e.failed]
        assert len(failed) == 1
        assert failed[0].finish_s == failed[0].start_s
        assert failed[0].bill.tiered_cost == 0.0
        # The remaining requests of the batch were still served.
        assert sum(1 for e in log if not e.failed) == 4
        assert platform.availability() == pytest.approx(14 / 15)
        unserved = [
            e
            for e in milestones(tracer, kind=EventKind.FALLBACK_RESTORE)
            if e.attrs.get("unserved")
        ]
        assert len(unserved) == 1


class TestDeterministicServeOrder:
    def test_equal_arrival_ties_replay_identically(self, tiny_function):
        """Satellite: equal-arrival batches are ordered by
        (arrival, name, input_index), independent of input list order."""
        logs = []
        for reverse in (False, True):
            platform, _ = chaos_platform(None)
            platform.deploy(tiny_function)
            requests = [(0.0, "tiny", i % 4) for i in range(8)]
            if reverse:
                requests = list(reversed(requests))
            logs.append(platform.serve(requests))
        assert [
            (e.function, e.input_index, e.start_s) for e in logs[0]
        ] == [(e.function, e.input_index, e.start_s) for e in logs[1]]


class TestZeroFaultPlatformIdentity:
    def test_zero_plan_platform_run_is_byte_identical(self, tiny_function):
        """An all-zero FaultPlan wired through the whole platform changes
        nothing: same log entries, same bills, same metrics."""
        requests = [(0.05 * i, "tiny", i % 4) for i in range(50)]
        logs = []
        for plan in (None, FaultPlan()):
            platform, _ = chaos_platform(plan)
            platform.deploy(tiny_function)
            platform.serve(requests)
            logs.append(platform)
        clean, zeroed = logs
        assert clean.log == zeroed.log
        assert clean.total_billed() == zeroed.total_billed()
        assert clean.savings_fraction() == zeroed.savings_fraction()
        assert zeroed.availability() == 1.0
        assert not any(e.degraded for e in zeroed.log)
        assert zeroed.total_retries() == 0
        assert zeroed.memory.fault_hook._draws == {}  # the RNG was never touched
