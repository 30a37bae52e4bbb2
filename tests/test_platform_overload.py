"""Overload-resilience layer: admission, deadlines, breakers, the ladder.

Covers the policy objects in :mod:`repro.platform.overload` and their
integration into :class:`~repro.platform.server.ServerlessPlatform`:
batch traffic is shed with typed decisions while latency traffic always
finds a path (fallback if necessary), deadlines abort restores that
would blow them, breakers cycle closed -> open -> half-open in simulated
time, the health ladder climbs and descends one observable step at a
time — and the all-permissive configuration is byte-identical to no
overload policy at all.
"""

from __future__ import annotations

import pytest

from repro.core.telemetry import EventKind
from repro.core.toss import Phase, TossConfig, TossController
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    FaultInjected,
    SchedulerError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    StorageFaultSpec,
    TierFaultSpec,
)
from repro.platform import HostCapacity
from repro.platform.overload import (
    BreakerState,
    CircuitBreaker,
    DegradationLadder,
    HealthState,
    OverloadConfig,
    OverloadPolicy,
    RequestClass,
    ShedReason,
)
from repro.platform.server import ServerlessPlatform

from telemetry_events import milestones, observe_calls

SMALL_TOSS = TossConfig(convergence_window=3, min_profiling_invocations=3)


def make_platform(overload=None, *, n_cores=2, faults=None, **kwargs):
    platform = ServerlessPlatform(
        n_cores=n_cores,
        toss_cfg=SMALL_TOSS,
        faults=faults,
        overload=overload,
        **kwargs,
    )
    return platform, observe_calls(platform, "serve")


class TestOverloadConfig:
    def test_default_is_permissive(self):
        assert OverloadConfig().is_permissive

    def test_any_knob_breaks_permissiveness(self):
        assert not OverloadConfig(max_queue_depth=4).is_permissive
        assert not OverloadConfig(slo_factor=3.0).is_permissive
        assert not OverloadConfig(pressured_delay_s=0.1).is_permissive

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"max_queue_delay_s": -1.0},
            {"max_function_depth": 0},
            {"slo_factor": 0.0},
            {"breaker_failures": 0},
            {"breaker_cooldown_s": 0.0},
            {"pressured_delay_s": -0.5},
            {"delay_alpha": 0.0},
            {"exit_factor": 1.0},
            {"fault_window": 0},
            {"degraded_fault_rate": 1.5},
            {"pressured_capacity_fraction": 0.0},
            {"keepalive_pressure_fraction": 1.5},
            # Thresholds must be ordered: pressured <= degraded <= shedding.
            {"pressured_delay_s": 0.5, "degraded_delay_s": 0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            OverloadConfig(**kwargs)


class TestRequestValidation:
    """Satellite: serve() validates request tuples up front, by name."""

    def test_negative_arrival_rejected_up_front(self, tiny_function):
        platform, _ = make_platform()
        platform.deploy(tiny_function)
        with pytest.raises(SchedulerError, match=r"\(-1\.0, 'tiny', 0\)"):
            platform.serve([(0.0, "tiny", 1), (-1.0, "tiny", 0)])
        # Nothing was partially served.
        assert platform.log == []

    def test_out_of_range_input_index_rejected(self, tiny_function):
        platform, _ = make_platform()
        platform.deploy(tiny_function)
        with pytest.raises(SchedulerError, match=r"input_index outside 0\.\.3"):
            platform.serve([(0.0, "tiny", 4)])
        with pytest.raises(SchedulerError, match="input_index"):
            platform.serve([(0.0, "tiny", -1)])
        assert platform.log == []

    def test_malformed_tuple_rejected(self, tiny_function):
        platform, _ = make_platform()
        platform.deploy(tiny_function)
        with pytest.raises(SchedulerError, match="malformed request tuple"):
            platform.serve([(0.0, "tiny")])

    def test_unknown_request_class_rejected(self, tiny_function):
        platform, _ = make_platform()
        platform.deploy(tiny_function)
        with pytest.raises(SchedulerError, match="unknown request class"):
            platform.serve([(0.0, "tiny", 0, "bulk")])

    def test_undeployed_function_still_rejected(self, tiny_function):
        platform, _ = make_platform()
        platform.deploy(tiny_function)
        with pytest.raises(SchedulerError, match="not deployed"):
            platform.serve([(0.0, "tiny", 0), (0.1, "ghost", 0)])

    def test_string_class_accepted(self, tiny_function):
        platform, _ = make_platform()
        platform.deploy(tiny_function)
        log = platform.serve([(0.0, "tiny", 0, "batch")])
        assert log[0].request_class == "batch"

    @pytest.mark.parametrize(
        "request_tuple,why",
        [
            ((float("nan"), "tiny", 0), "arrival time must be finite"),
            ((float("inf"), "tiny", 0), "arrival time must be finite"),
            (("1.0", "tiny", 0), "arrival time must be a number"),
            ((True, "tiny", 0), "arrival time must be a number"),
            ((0.0, "tiny", 1.5), "input_index must be an integer"),
            ((0.0, "tiny", True), "input_index must be an integer"),
            ((0.0, "tiny", "1"), "input_index must be an integer"),
        ],
        ids=["nan", "inf", "str-arrival", "bool-arrival", "float-index",
             "bool-index", "str-index"],
    )
    def test_bad_field_types_rejected_by_name(
        self, tiny_function, request_tuple, why
    ):
        platform, _ = make_platform()
        platform.deploy(tiny_function)
        with pytest.raises(SchedulerError, match=why) as info:
            platform.serve([(0.0, "tiny", 0), request_tuple])
        assert repr(request_tuple[0]) in str(info.value)
        assert platform.log == []


class TestCircuitBreakerUnit:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(3, 1.0)
        assert breaker.record_outcome(False, 0.0) == []
        assert breaker.record_outcome(False, 0.1) == []
        trans = breaker.record_outcome(False, 0.2)
        assert trans == [
            (BreakerState.CLOSED, BreakerState.OPEN, "failure-threshold")
        ]
        assert breaker.trips == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(2, 1.0)
        breaker.record_outcome(False, 0.0)
        breaker.record_outcome(True, 0.1)
        breaker.record_outcome(False, 0.2)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_cycle(self):
        breaker = CircuitBreaker(1, 1.0)
        breaker.record_outcome(False, 5.0)
        assert breaker.state is BreakerState.OPEN
        # Before the cool-down elapses, nothing moves.
        assert breaker.poll(5.5) == []
        trans = breaker.poll(6.0)
        assert trans == [
            (BreakerState.OPEN, BreakerState.HALF_OPEN, "cooldown-elapsed")
        ]
        # A probe's outcome is deferred to its finish timestamp: the
        # breaker stays half-open (probe in flight) until polled past it.
        assert breaker.record_outcome(False, 6.1) == []
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.poll(6.05) == []
        # A failing probe re-opens for a fresh cool-down ...
        trans = breaker.poll(6.1)
        assert trans == [
            (BreakerState.HALF_OPEN, BreakerState.OPEN, "probe-failed")
        ]
        assert breaker.poll(7.0) == []
        breaker.poll(7.1)
        # ... and a succeeding probe closes.
        assert breaker.record_outcome(True, 7.2) == []
        trans = breaker.poll(7.2)
        assert trans == [
            (BreakerState.HALF_OPEN, BreakerState.CLOSED, "probe-succeeded")
        ]

    def test_half_open_single_probe_slot(self):
        breaker = CircuitBreaker(1, 1.0)
        breaker.record_outcome(False, 0.0)
        breaker.poll(1.0)
        assert breaker.state is BreakerState.HALF_OPEN
        # Exactly one caller claims the slot; the rest are refused.
        assert breaker.try_acquire_probe()
        assert not breaker.try_acquire_probe()
        assert not breaker.try_acquire_probe()
        assert breaker.probes_refused == 2
        # The slot stays held while the probe's outcome is pending ...
        breaker.record_outcome(False, 1.4)
        assert not breaker.try_acquire_probe()
        assert breaker.probes_refused == 3
        # ... and a fresh half-open window gets a fresh slot.
        breaker.poll(1.4)
        assert breaker.state is BreakerState.OPEN
        breaker.poll(2.4)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.try_acquire_probe()

    def test_release_probe_returns_slot(self):
        breaker = CircuitBreaker(1, 1.0)
        breaker.record_outcome(False, 0.0)
        breaker.poll(1.0)
        assert breaker.try_acquire_probe()
        # The probe never ran (e.g. capacity-shed): the slot comes back.
        breaker.release_probe()
        assert breaker.try_acquire_probe()

    def test_closed_breaker_has_no_probe_slot(self):
        breaker = CircuitBreaker(1, 1.0)
        assert not breaker.try_acquire_probe()
        assert breaker.probes_refused == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(0, 1.0)
        with pytest.raises(ConfigError):
            CircuitBreaker(1, 0.0)


class TestDegradationLadderUnit:
    def cfg(self, **kwargs):
        defaults = dict(
            pressured_delay_s=0.01,
            degraded_delay_s=0.05,
            shedding_delay_s=0.10,
            delay_alpha=1.0,
            exit_factor=0.5,
        )
        defaults.update(kwargs)
        return OverloadConfig(**defaults)

    def test_disabled_ladder_never_moves(self):
        ladder = DegradationLadder(OverloadConfig())
        assert not ladder.enabled
        assert ladder.update(0.0, queue_delay_s=100.0) == []
        assert ladder.state is HealthState.HEALTHY

    def test_climbs_one_step_per_observation(self):
        ladder = DegradationLadder(self.cfg())
        # Delay far above every threshold: still only one rung at a time.
        assert ladder.update(0.0, queue_delay_s=1.0) == [
            (0.0, HealthState.HEALTHY, HealthState.PRESSURED)
        ]
        assert ladder.update(1.0, queue_delay_s=1.0) == [
            (1.0, HealthState.PRESSURED, HealthState.DEGRADED)
        ]
        assert ladder.update(2.0, queue_delay_s=1.0) == [
            (2.0, HealthState.DEGRADED, HealthState.SHEDDING)
        ]
        assert ladder.update(3.0, queue_delay_s=1.0) == []

    def test_hysteresis_on_descent(self):
        ladder = DegradationLadder(self.cfg(delay_alpha=1.0))
        ladder.update(0.0, queue_delay_s=0.02)
        assert ladder.state is HealthState.PRESSURED
        # Dropping just below the entry threshold is not enough ...
        assert ladder.update(1.0, queue_delay_s=0.008) == []
        # ... it must fall below exit_factor * threshold.
        assert ladder.update(2.0, queue_delay_s=0.001) == [
            (2.0, HealthState.PRESSURED, HealthState.HEALTHY)
        ]

    def test_fault_rate_forces_degraded(self):
        ladder = DegradationLadder(
            OverloadConfig(degraded_fault_rate=0.5, fault_window=4)
        )
        for _ in range(4):
            ladder.note_outcome(True)
        ladder.update(0.0, queue_delay_s=0.0)
        ladder.update(1.0, queue_delay_s=0.0)
        assert ladder.state is HealthState.DEGRADED
        assert ladder.force_fallback
        # A stream of clean outcomes drains the window and recovers.
        for _ in range(4):
            ladder.note_outcome(False)
        ladder.update(2.0, queue_delay_s=0.0)
        ladder.update(3.0, queue_delay_s=0.0)
        assert ladder.state is HealthState.HEALTHY

    def test_capacity_pressure_forces_pressured(self):
        ladder = DegradationLadder(
            OverloadConfig(pressured_capacity_fraction=0.8)
        )
        ladder.update(0.0, queue_delay_s=0.0, capacity_pressure=0.9)
        assert ladder.state is HealthState.PRESSURED
        assert ladder.disable_prewarm
        ladder.update(1.0, queue_delay_s=0.0, capacity_pressure=0.1)
        assert ladder.state is HealthState.HEALTHY


class TestBoundedAdmission:
    def test_queue_depth_limit_sheds_batch_only(self, tiny_function):
        platform, tracer = make_platform(
            OverloadConfig(max_queue_depth=2), n_cores=1
        )
        platform.deploy(tiny_function)
        burst = [
            (0.0, "tiny", i % 4, "batch" if i % 2 else "latency")
            for i in range(12)
        ]
        log = platform.serve(burst)
        shed = [e for e in log if e.shed]
        assert shed and all(e.request_class == "batch" for e in shed)
        assert all(e.shed_reason == ShedReason.QUEUE_DEPTH.value for e in shed)
        # Latency traffic over the limit fell back instead of queueing.
        forced = [e for e in log if e.request_class == "latency" and e.degraded]
        assert forced
        # Every shed decision reaches telemetry.
        events = milestones(tracer, kind=EventKind.REQUEST_SHED)
        assert len(events) == len(shed)
        assert all(e.attrs["reason"] == "queue-depth" for e in events)
        # Sheds do not count against availability, but are reported.
        assert platform.availability() == 1.0
        assert platform.total_shed() == len(shed)
        assert platform.shed_fraction() == pytest.approx(len(shed) / 12)

    def test_queue_delay_limit(self, tiny_function):
        platform, _ = make_platform(
            OverloadConfig(max_queue_delay_s=0.005), n_cores=1
        )
        platform.deploy(tiny_function)
        log = platform.serve(
            [(0.0001 * i, "tiny", 3, "batch") for i in range(10)]
        )
        shed = [e for e in log if e.shed]
        assert shed
        assert all(e.shed_reason == ShedReason.QUEUE_DELAY.value for e in shed)

    def test_function_depth_limit(self, tiny_function, memory_intensive_function):
        platform, _ = make_platform(
            OverloadConfig(max_function_depth=1), n_cores=4
        )
        platform.deploy(tiny_function)
        platform.deploy(memory_intensive_function)
        log = platform.serve(
            [(0.0, "tiny", 3, "batch") for _ in range(3)]
            + [(0.0, "intense", 0, "batch")]
        )
        shed = [e for e in log if e.shed]
        # Only the hot function is capped; the other function's request
        # is untouched even though cores were available for all.
        assert shed and all(e.function == "tiny" for e in shed)
        assert all(
            e.shed_reason == ShedReason.FUNCTION_DEPTH.value for e in shed
        )


class TestDeadlines:
    def test_deadline_recorded_and_met_when_idle(self, tiny_function):
        platform, _ = make_platform(OverloadConfig(slo_factor=50.0))
        platform.deploy(tiny_function)
        log = platform.serve([(0.5 * i, "tiny", 0) for i in range(10)])
        assert all(e.deadline_s is not None for e in log)
        assert all(e.deadline_met or e.degraded for e in log)
        assert platform.deadline_misses() == []

    def test_hopeless_batch_shed_at_admission(self, tiny_function):
        platform, _ = make_platform(
            OverloadConfig(slo_factor=1.5), n_cores=1
        )
        platform.deploy(tiny_function)
        # One core, simultaneous arrivals: the queue alone blows the
        # deadline for the tail.  Batch is shed; latency served anyway.
        log = platform.serve(
            [(0.0, "tiny", 3, "batch" if i % 2 else "latency") for i in range(8)]
        )
        shed = [e for e in log if e.shed]
        assert shed and all(e.request_class == "batch" for e in shed)
        assert all(e.shed_reason == ShedReason.DEADLINE.value for e in shed)
        assert all(not e.shed for e in log if e.request_class == "latency")

    def test_tiered_restore_aborted_when_budget_blown(self, tiny_function):
        ctl = TossController(tiny_function, cfg=SMALL_TOSS)
        tracer = observe_calls(ctl, "invoke")
        for i in range(10):
            if ctl.phase is Phase.TIERED:
                break
            ctl.invoke(i % 4)
        assert ctl.phase is Phase.TIERED
        outcome = ctl.invoke(3, setup_budget_s=0.0)
        assert outcome.aborted
        assert outcome.degraded
        assert outcome.slow_fraction == 0.0
        events = milestones(tracer, kind=EventKind.DEADLINE_ABORTED)
        assert len(events) == 1
        assert events[0].attrs["budget_s"] == 0.0
        # The abort cost is capped at the budget: with budget 0 the
        # setup reduces to the fallback lazy restore alone.
        assert outcome.setup_time_s > 0.0

    def test_abort_without_fallback_raises(self, tiny_function):
        ctl = TossController(tiny_function, cfg=SMALL_TOSS)
        for i in range(10):
            if ctl.phase is Phase.TIERED:
                break
            ctl.invoke(i % 4)
        ctl.single_snapshot = None
        with pytest.raises(DeadlineExceededError, match="no single-tier"):
            ctl.invoke(3, setup_budget_s=0.0)

    def test_generous_budget_changes_nothing(self, tiny_function):
        ctl = TossController(tiny_function, cfg=SMALL_TOSS)
        for i in range(10):
            if ctl.phase is Phase.TIERED:
                break
            ctl.invoke(i % 4)
        outcome = ctl.invoke(3, setup_budget_s=60.0)
        assert not outcome.aborted


class TestCircuitBreakerIntegration:
    def test_outage_trips_and_recovers_breaker(self, tiny_function):
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((2.0, 4.0),)))
        platform, tracer = make_platform(
            OverloadConfig(breaker_failures=2, breaker_cooldown_s=1.0),
            faults=FaultInjector(plan),
        )
        platform.deploy(tiny_function)
        log = platform.serve([(0.1 * i, "tiny", 3) for i in range(80)])

        breaker = platform.overload.breakers["tiny"]
        assert breaker.trips >= 1
        assert breaker.state is BreakerState.CLOSED
        # Every state of the cycle appears in telemetry.
        seen = {
            (e.attrs["from_state"], e.attrs["to_state"])
            for e in milestones(tracer, kind=EventKind.BREAKER_TRANSITION)
        }
        assert ("closed", "open") in seen
        assert ("open", "half-open") in seen
        assert ("half-open", "closed") in seen
        # While open, requests were served via fallback — not dropped.
        assert platform.availability() == 1.0
        assert not any(e.failed for e in log)
        assert any(e.degraded for e in log)

    def test_fail_fast_sheds_batch_while_open(self, tiny_function):
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((1.0, 3.0),)))
        platform, _ = make_platform(
            OverloadConfig(
                breaker_failures=1,
                breaker_cooldown_s=0.5,
                breaker_fail_fast=True,
            ),
            faults=FaultInjector(plan),
        )
        platform.deploy(tiny_function)
        log = platform.serve(
            [
                (0.05 * i, "tiny", 3, "batch" if i % 2 else "latency")
                for i in range(80)
            ]
        )
        shed = [e for e in log if e.shed]
        assert shed
        assert all(e.shed_reason == ShedReason.BREAKER_OPEN.value for e in shed)
        assert all(e.request_class == "batch" for e in shed)
        # Latency traffic kept being served through the outage.
        assert all(
            not e.shed and not e.failed
            for e in log
            if e.request_class == "latency"
        )

    def test_half_open_admits_exactly_one_probe(self, tiny_function):
        """Concurrent half-open arrivals must not stampede the probe.

        Regression for the half-open stampede: the probe's outcome used
        to be applied to the breaker state eagerly at admission time, so
        requests arriving *while the probe was still running* rode a
        state from their future and all hit the recovering tiered path
        at once.  Exactly one of the concurrent arrivals may probe; the
        rest take the fallback path until the probe's finish has been
        polled past.
        """
        plan = FaultPlan(tier=TierFaultSpec(outage_windows=((2.0, 4.5),)))
        platform, tracer = make_platform(
            OverloadConfig(breaker_failures=2, breaker_cooldown_s=3.0),
            n_cores=4,
            faults=FaultInjector(plan),
        )
        platform.deploy(tiny_function)
        requests = [(0.1 * i, "tiny", 3) for i in range(15)]
        # Two tiered failures inside the outage trip the breaker; the
        # cool-down ends after the outage does, so the next half-open
        # probe will succeed.
        requests += [(2.1, "tiny", 3), (2.2, "tiny", 3)]
        # Four requests arrive at the same instant while half-open: the
        # probe's outcome is not known until it finishes, so only one of
        # them may attempt the tiered path.
        requests += [(5.6, "tiny", 3)] * 4
        requests += [(7.5, "tiny", 3)]
        log = platform.serve(requests)

        breaker = platform.overload.breakers["tiny"]
        assert breaker.trips == 1
        wave = [e for e in log if e.arrival_s == 5.6]
        assert len(wave) == 4
        probes = [e for e in wave if not e.degraded]
        assert len(probes) == 1
        assert breaker.probes_refused == 3
        # The successful probe closed the breaker once polled past; the
        # late request rode the tiered path again.
        assert breaker.state is BreakerState.CLOSED
        late = [e for e in log if e.arrival_s == 7.5]
        assert late and not late[0].degraded
        seen = {
            (e.attrs["from_state"], e.attrs["to_state"])
            for e in milestones(tracer, kind=EventKind.BREAKER_TRANSITION)
        }
        assert ("half-open", "closed") in seen
        assert platform.availability() == 1.0


class TestHostCapacityAdmission:
    """Satellite: capacity rejections are shed decisions, not errors."""

    def test_full_host_sheds_instead_of_raising(self, tiny_function):
        # Room for exactly one 128 MB guest: concurrent arrivals collide.
        platform, tracer = make_platform(
            None, n_cores=2, capacity=HostCapacity(150.0, 1024.0)
        )
        platform.deploy(tiny_function)
        log = platform.serve([(0.0, "tiny", 0, "batch"), (0.0, "tiny", 1, "batch")])
        assert [e.shed for e in log] == [False, True]
        assert log[1].shed_reason == ShedReason.CAPACITY.value
        assert milestones(tracer, kind=EventKind.REQUEST_SHED)
        # Works without an overload policy: capacity stands alone.
        assert platform.overload is None

    def test_leases_release_at_finish_times(self, tiny_function):
        platform, _ = make_platform(
            None, n_cores=2, capacity=HostCapacity(150.0, 1024.0)
        )
        platform.deploy(tiny_function)
        # Spaced arrivals: each VM's memory is released before the next
        # request arrives, so nothing is shed.
        log = platform.serve([(2.0 * i, "tiny", 0) for i in range(6)])
        assert not any(e.shed for e in log)
        assert platform.capacity.resident_count <= 1

    def test_capacity_feeds_ladder_pressure(self, tiny_function):
        platform, _ = make_platform(
            OverloadConfig(pressured_capacity_fraction=0.5),
            n_cores=2,
            capacity=HostCapacity(200.0, 1024.0),
        )
        platform.deploy(tiny_function)
        platform.serve([(0.001 * i, "tiny", 0) for i in range(8)])
        # The host sat above 50 % fast-tier pressure while serving, so
        # the ladder left HEALTHY at some point.
        assert platform.overload.ladder.transitions


class TestFailedRequestAccounting:
    """Satellite: failed entries record the core's true state."""

    def test_failed_entry_records_free_at_and_queue_delay(
        self, tiny_function, monkeypatch
    ):
        platform, tracer = make_platform(None, n_cores=1)
        platform.deploy(tiny_function)
        platform.serve([(0.0, "tiny", 0)])
        busy_until = platform.log[0].finish_s
        assert busy_until > 0.0

        def explode(self, dep, input_index):
            raise FaultInjected("injected for the test")

        monkeypatch.setattr(ServerlessPlatform, "_invoke", explode)
        log = platform.serve([(0.0, "tiny", 1)])
        assert log[0].failed
        # The failed attempt consumed no simulated time.
        assert log[0].finish_s == log[0].start_s
        events = [
            e
            for e in milestones(tracer, kind=EventKind.FALLBACK_RESTORE)
            if e.attrs.get("unserved")
        ]
        assert len(events) == 1
        # The entry's telemetry carries the core's true free time (the
        # first call's request still holds the one core: serve state
        # carries across calls) and the wait.
        assert events[0].attrs["free_at_s"] == round(busy_until, 6)
        assert log[0].start_s == busy_until
        assert events[0].attrs["queue_delay_s"] == round(
            log[0].start_s - log[0].arrival_s, 6
        )


class TestPermissiveIdentity:
    """Satellite: the all-permissive config is the identity."""

    def serve_stream(self, platform, tiny_function):
        platform.deploy(tiny_function)
        return platform.serve(
            [(0.01 * i, "tiny", i % 4) for i in range(50)]
        )

    def test_logs_byte_identical_without_faults(self, tiny_function):
        plain, _ = make_platform(None)
        guarded, _ = make_platform(OverloadConfig())
        self.serve_stream(plain, tiny_function)
        self.serve_stream(guarded, tiny_function)
        assert plain.log == guarded.log
        assert plain.total_billed() == guarded.total_billed()
        assert plain.availability() == guarded.availability()
        assert guarded.total_shed() == 0

    def test_logs_byte_identical_under_chaos(self, tiny_function):
        plan = FaultPlan(
            ssd=StorageFaultSpec(read_error_rate=1e-3),
            tier=TierFaultSpec(outage_windows=((0.1, 0.2),)),
        )
        plain, _ = make_platform(None, faults=FaultInjector(plan))
        guarded, _ = make_platform(
            OverloadConfig(), faults=FaultInjector(plan)
        )
        self.serve_stream(plain, tiny_function)
        self.serve_stream(guarded, tiny_function)
        assert plain.log == guarded.log

    def test_policy_wrapping_is_equivalent(self, tiny_function):
        cfg = OverloadConfig(max_queue_depth=3)
        via_config, _ = make_platform(cfg)
        via_policy, _ = make_platform(OverloadPolicy(cfg))
        self.serve_stream(via_config, tiny_function)
        self.serve_stream(via_policy, tiny_function)
        assert via_config.log == via_policy.log


class TestDegradationScenario:
    """The documented chaos-plus-burst acceptance scenario.

    A steady batch stream shares the platform with a latency-traffic
    burst under an SSD read-error storm.  The acceptance bar (mirrored by
    ``docs/modeling.md`` and the CI smoke benchmark): every ladder
    transition up and back down appears in telemetry, at most 20 % of
    batch traffic is shed, and 100 % of latency-class requests are served
    within their deadline or via the fallback path.
    """

    def run_scenario(self, tiny_function):
        cfg = OverloadConfig(
            slo_factor=20.0,
            breaker_failures=3,
            breaker_cooldown_s=1.0,
            pressured_delay_s=0.010,
            degraded_delay_s=0.040,
            shedding_delay_s=0.120,
            delay_alpha=0.3,
        )
        plan = FaultPlan(ssd=StorageFaultSpec(read_error_rate=1e-3))
        platform, tracer = make_platform(
            cfg, faults=FaultInjector(plan)
        )
        platform.deploy(tiny_function)
        warmup = [(0.1 * i, "tiny", i % 4) for i in range(12)]
        background = [(0.5 * i, "tiny", 1, "batch") for i in range(24)]
        burst = [(2.0 + 0.001 * i, "tiny", 0) for i in range(60)]
        recovery = [(12.0 + 0.5 * i, "tiny", 0) for i in range(8)]
        platform.serve(warmup + background + burst + recovery)
        return platform, tracer

    def test_full_ladder_cycle_in_telemetry(self, tiny_function):
        platform, tracer = self.run_scenario(tiny_function)
        steps = [
            (e.attrs["from_state"], e.attrs["to_state"])
            for e in milestones(tracer, kind=EventKind.HEALTH_TRANSITION)
        ]
        assert ("HEALTHY", "PRESSURED") in steps
        assert ("PRESSURED", "DEGRADED") in steps
        assert ("DEGRADED", "SHEDDING") in steps
        assert ("SHEDDING", "DEGRADED") in steps
        assert ("DEGRADED", "PRESSURED") in steps
        assert ("PRESSURED", "HEALTHY") in steps
        assert platform.health_state is HealthState.HEALTHY
        # Telemetry and the ladder's own record agree step for step.
        assert len(steps) == len(platform.overload.ladder.transitions)

    def test_batch_shed_bounded_and_latency_protected(self, tiny_function):
        platform, _ = self.run_scenario(tiny_function)
        assert 0.0 < platform.batch_shed_fraction() <= 0.20
        latency = [
            e for e in platform.log if e.request_class == "latency"
        ]
        assert latency
        assert all(not e.shed and not e.failed for e in latency)
        # Within deadline, or explicitly served via the fallback path.
        assert all(e.deadline_met or e.degraded for e in latency)
        assert platform.availability() == 1.0

    def test_pressure_disables_prewarm_and_shrinks_keepalive(
        self, tiny_function
    ):
        from repro.platform import KeepAliveCache, PrewarmPolicy

        cfg = OverloadConfig(
            pressured_delay_s=0.010,
            degraded_delay_s=0.040,
            shedding_delay_s=0.120,
            delay_alpha=0.3,
        )
        keepalive = KeepAliveCache(1024.0)
        prewarm = PrewarmPolicy()
        platform, _ = make_platform(
            cfg, n_cores=1, keepalive=keepalive, prewarm=prewarm
        )
        platform.deploy(tiny_function)
        warmup = [(0.1 * i, "tiny", 0) for i in range(12)]
        burst = [(2.0 + 0.001 * i, "tiny", 3) for i in range(40)]
        platform.serve(warmup + burst)
        # The burst pushed the platform past DEGRADED: pre-warming was
        # switched off and the keep-alive cache fully evicted.
        assert platform.overload.ladder.transitions
        assert not prewarm.enabled or platform.health_state is (
            HealthState.HEALTHY
        )
        assert keepalive.evictions >= 1
