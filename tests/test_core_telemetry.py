"""Tests for controller telemetry: lifecycle milestones on the tracer."""

from __future__ import annotations

from repro.core.telemetry import EventKind
from repro.core.toss import Phase, TossConfig, TossController
from repro.obs.runtime import observing

from telemetry_events import milestones


class TestControllerIntegration:
    def test_lifecycle_events_emitted(self, tiny_function):
        ctl = TossController(
            tiny_function,
            cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
        )
        with observing() as obs:
            for _ in range(40):
                ctl.invoke(3)
                if ctl.phase is Phase.TIERED:
                    break
            ctl.invoke(3)

        def count(kind):
            return len(milestones(obs.tracer, kind=kind))

        assert count(EventKind.INITIAL_EXECUTION) == 1
        assert count(EventKind.PROFILING_INVOCATION) >= 3
        assert count(EventKind.PATTERN_CONVERGED) == 1
        assert count(EventKind.TIERED_INVOCATION) >= 1
        (generated,) = milestones(obs.tracer, kind=EventKind.SNAPSHOT_GENERATED)
        assert 0.0 < generated.attrs["slow_fraction"] <= 1.0
        assert generated.attrs["cost"] < 1.0

    def test_reprofile_event(self, tiny_function):
        ctl = TossController(
            tiny_function,
            cfg=TossConfig(
                convergence_window=3,
                min_profiling_invocations=3,
                reprofile_bound=0.001,
            ),
        )
        with observing() as obs:
            for _ in range(60):
                ctl.invoke(0)
                if ctl.phase is Phase.TIERED:
                    break
            for _ in range(300):
                ctl.invoke(3)
                if ctl.phase is Phase.PROFILING:
                    break
        assert len(milestones(obs.tracer, kind=EventKind.REPROFILE_TRIGGERED)) == 1

    def test_no_telemetry_no_overhead(self, tiny_function):
        ctl = TossController(
            tiny_function,
            cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
        )
        out = ctl.invoke(0)
        assert out.phase is Phase.INITIAL  # just runs with nothing observing
