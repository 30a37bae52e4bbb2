"""Deterministic telemetry ordering on the event-driven serve loop.

Shed, breaker-transition and health-transition events are *decided*
eagerly (the next admission check must see the new state) but *emitted*
as events at their simulated timestamps, so the trace's telemetry
instants read like a timeline: ``attrs["at_s"]`` never decreases, no
matter how far ahead of the arrival stream a breaker observed its
transition.
"""

from __future__ import annotations

from repro.core.telemetry import EventKind
from repro.core.toss import TossConfig
from repro.platform.overload import OverloadConfig
from repro.platform.server import ServerlessPlatform

from telemetry_events import kind_of, milestones, observe_calls

SMALL_TOSS = TossConfig(convergence_window=3, min_profiling_invocations=3)

ORDERED_KINDS = (
    EventKind.REQUEST_SHED,
    EventKind.BREAKER_TRANSITION,
    EventKind.HEALTH_TRANSITION,
)


def overloaded_run(tiny_function):
    """A stream that sheds, trips breakers and climbs the ladder."""
    platform = ServerlessPlatform(
        n_cores=1,
        toss_cfg=SMALL_TOSS,
        overload=OverloadConfig(
            max_queue_depth=2,
            max_queue_delay_s=0.02,
            slo_factor=4.0,
            pressured_delay_s=0.010,
            degraded_delay_s=0.040,
            shedding_delay_s=0.120,
            delay_alpha=0.3,
        ),
    )
    platform.deploy(tiny_function)
    tracer = observe_calls(platform, "serve")
    warmup = [(0.001 * i, "tiny", i % 4) for i in range(12)]
    burst = [
        (0.5 + 0.0005 * i, "tiny", i % 4, "batch" if i % 2 else "latency")
        for i in range(40)
    ]
    recovery = [(5.0 + 0.5 * i, "tiny", 0) for i in range(4)]
    platform.serve(warmup + burst + recovery)
    return platform, milestones(tracer)


class TestTelemetryOrdering:
    def test_ordered_kinds_carry_timestamps(self, tiny_function):
        _, events = overloaded_run(tiny_function)
        stamped = [e for e in events if kind_of(e.name) in ORDERED_KINDS]
        assert stamped, "scenario produced no overload telemetry"
        assert {kind_of(e.name) for e in stamped} >= {
            EventKind.REQUEST_SHED,
            EventKind.HEALTH_TRANSITION,
        }
        assert all("at_s" in e.attrs for e in stamped)

    def test_emission_order_is_nondecreasing_simulated_time(self, tiny_function):
        _, events = overloaded_run(tiny_function)
        stamps = [e.attrs["at_s"] for e in events if kind_of(e.name) in ORDERED_KINDS]
        assert stamps == sorted(stamps)

    def test_ordering_is_deterministic_across_runs(self, tiny_function):
        _, first = overloaded_run(tiny_function)
        _, second = overloaded_run(tiny_function)
        key = [(e.name, tuple(sorted(e.attrs.items()))) for e in first]
        assert key == [(e.name, tuple(sorted(e.attrs.items()))) for e in second]
