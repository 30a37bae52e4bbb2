"""Tests for controller telemetry."""

from __future__ import annotations

import pytest

from repro.core.telemetry import EventKind, TelemetryEvent, TelemetryLog
from repro.core.toss import Phase, TossConfig, TossController


class TestTelemetryLog:
    def test_emit_and_query(self):
        log = TelemetryLog()
        log.emit(TelemetryEvent(EventKind.INITIAL_EXECUTION, "f", 1))
        log.emit(TelemetryEvent(EventKind.TIERED_INVOCATION, "f", 2))
        log.emit(TelemetryEvent(EventKind.TIERED_INVOCATION, "f", 3))
        assert log.count(EventKind.TIERED_INVOCATION) == 2
        assert log.last(EventKind.TIERED_INVOCATION).invocation == 3
        assert log.last(EventKind.REPROFILE_TRIGGERED) is None

    def test_of_kind_preserves_emission_order(self):
        log = TelemetryLog()
        for i in (3, 1, 2):
            log.emit(TelemetryEvent(EventKind.RESTORE_RETRIED, "f", i))
            log.emit(TelemetryEvent(EventKind.TIERED_INVOCATION, "f", i))
        retried = log.of_kind(EventKind.RESTORE_RETRIED)
        # Emission order, not invocation order, and only the asked kind.
        assert [e.invocation for e in retried] == [3, 1, 2]
        assert all(e.kind is EventKind.RESTORE_RETRIED for e in retried)
        assert log.of_kind(EventKind.FALLBACK_RESTORE) == []


class TestEventTimestampField:
    def test_field_carries_timestamp(self):
        event = TelemetryEvent(EventKind.BREAKER_TRANSITION, "f", 1, at_s=4.25)
        assert event.at_s == 4.25
        # The transition-release detail mirror is gone for good.
        assert "at_s" not in event.detail

    def test_no_timestamp_stays_none(self):
        event = TelemetryEvent(EventKind.TIERED_INVOCATION, "f", 1)
        assert event.at_s is None
        assert "at_s" not in event.detail

    def test_timestamp_in_detail_is_rejected(self):
        # Stragglers still emitting through detail fail loudly instead of
        # silently losing their timestamps.
        with pytest.raises(ValueError, match="at_s"):
            TelemetryEvent(
                EventKind.REQUEST_SHED, "f", 1, {"at_s": 2.5, "reason": "x"}
            )


class TestControllerIntegration:
    def test_lifecycle_events_emitted(self, tiny_function):
        log = TelemetryLog()
        ctl = TossController(
            tiny_function,
            cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
            telemetry=log,
        )
        for _ in range(40):
            ctl.invoke(3)
            if ctl.phase is Phase.TIERED:
                break
        ctl.invoke(3)
        assert log.count(EventKind.INITIAL_EXECUTION) == 1
        assert log.count(EventKind.PROFILING_INVOCATION) >= 3
        assert log.count(EventKind.PATTERN_CONVERGED) == 1
        assert log.count(EventKind.SNAPSHOT_GENERATED) == 1
        assert log.count(EventKind.TIERED_INVOCATION) >= 1
        detail = log.last(EventKind.SNAPSHOT_GENERATED).detail
        assert 0.0 < detail["slow_fraction"] <= 1.0
        assert detail["cost"] < 1.0

    def test_reprofile_event(self, tiny_function):
        log = TelemetryLog()
        ctl = TossController(
            tiny_function,
            cfg=TossConfig(
                convergence_window=3,
                min_profiling_invocations=3,
                reprofile_bound=0.001,
            ),
            telemetry=log,
        )
        for _ in range(60):
            ctl.invoke(0)
            if ctl.phase is Phase.TIERED:
                break
        for _ in range(300):
            ctl.invoke(3)
            if ctl.phase is Phase.PROFILING:
                break
        assert log.count(EventKind.REPROFILE_TRIGGERED) == 1

    def test_no_telemetry_no_overhead(self, tiny_function):
        ctl = TossController(
            tiny_function,
            cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
        )
        out = ctl.invoke(0)
        assert out.phase is Phase.INITIAL  # just runs without a log
