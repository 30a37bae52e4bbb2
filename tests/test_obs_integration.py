"""Observation wired through the stack: controller, platform, kernel.

The two invariants the driver cares about most live here: *disabled*
tracing changes nothing (outcomes identical with and without an active
observation), and *enabled* tracing produces spans whose phase durations
reconcile with the setup times the simulation reports.
"""

from __future__ import annotations

from repro.core.toss import Phase, TossConfig, TossController
from repro.obs import Observation, observing, perfetto_json, runtime
from repro.obs.spans import SpanStatus
from repro.platform.overload import OverloadConfig
from repro.platform.server import ServerlessPlatform


def drive_to_tiered(ctl: TossController, max_iter: int = 60) -> None:
    for _ in range(max_iter):
        ctl.invoke(3)
        if ctl.phase is Phase.TIERED:
            return
    raise AssertionError("controller never reached the tiered phase")


CFG = TossConfig(convergence_window=3, min_profiling_invocations=3)


def named(tracer, prefix):
    """Closed spans whose name starts with ``prefix``, in export order."""
    return [s for s in tracer.finished() if s.name.startswith(prefix)]


def children(tracer, span):
    """Closed direct children of ``span``, in export order."""
    return [s for s in tracer.finished() if s.parent_id == span.span_id]


class TestControllerSpans:
    def test_lifecycle_phases_become_spans(self, tiny_function):
        with observing() as obs:
            ctl = TossController(tiny_function, cfg=CFG)
            drive_to_tiered(ctl)
            ctl.invoke(3)
        names = [s.name for s in named(obs.tracer, "invoke/")]
        assert names[0] == "invoke/initial"
        assert "invoke/profiling" in names
        assert names[-1] == "invoke/tiered"

    def test_restore_phase_durations_sum_to_setup_time(self, tiny_function):
        with observing() as obs:
            ctl = TossController(tiny_function, cfg=CFG)
            drive_to_tiered(ctl)
            outcome = ctl.invoke(3)
        restore = [
            s for s in named(obs.tracer, "restore/toss") if s.name == "restore/toss"
        ][-1]
        phases = [
            s
            for s in children(obs.tracer, restore)
            if s.name.startswith("restore/toss/")
        ]
        assert phases, "tiered restore produced no phase spans"
        total = 0.0
        for span in phases:
            total += span.duration_s
        assert abs(total - outcome.setup_time_s) < 1e-9
        assert restore.attrs["setup_s"] == outcome.setup_time_s

    def test_telemetry_events_land_on_spans(self, tiny_function):
        with observing() as obs:
            ctl = TossController(tiny_function, cfg=CFG)
            drive_to_tiered(ctl)
        tiered = [
            e
            for s in obs.tracer.spans
            for e in s.events
            if e.name == "telemetry/snapshot-generated"
        ]
        assert len(tiered) == 1

    def test_invocation_metrics_recorded(self, tiny_function):
        with observing() as obs:
            ctl = TossController(tiny_function, cfg=CFG)
            drive_to_tiered(ctl)
        counter = obs.metrics.get("toss_invocations_total")
        assert counter is not None
        assert counter.value(function="tiny", phase="initial") == 1
        assert counter.value(function="tiny", phase="profiling") >= 3
        hist = obs.metrics.get("toss_invocation_seconds")
        assert hist.count(phase="initial") == 1
        setup = obs.metrics.get("toss_restore_setup_seconds")
        assert setup.count(strategy="lazy") >= 3

    def test_outcomes_identical_with_and_without_observation(self, tiny_function):
        def run(observed: bool):
            ctl = TossController(tiny_function, cfg=CFG)
            if observed:
                with observing():
                    return [ctl.invoke(i % 4) for i in range(12)]
            return [ctl.invoke(i % 4) for i in range(12)]

        assert run(False) == run(True)

    def test_deactivation_restores_previous(self):
        assert runtime.active() is None
        outer = Observation()
        with observing(outer):
            assert runtime.active() is outer
            with observing() as inner:
                assert runtime.active() is inner
            assert runtime.active() is outer
        assert runtime.active() is None


class TestPlatformSpans:
    def serve(self, tiny_function, overload=False):
        platform = ServerlessPlatform(
            n_cores=2,
            toss_cfg=CFG,
            overload=OverloadConfig(max_queue_depth=1, max_queue_delay_s=0.001)
            if overload
            else None,
        )
        platform.deploy(tiny_function)
        requests = [
            (i * 0.001, "tiny", i % 4, "batch" if overload else "latency")
            for i in range(12)
        ]
        return platform.serve(requests)

    def test_each_served_request_gets_a_root_span(self, tiny_function):
        with observing() as obs:
            log = self.serve(tiny_function)
        roots = named(obs.tracer, "request/tiny")
        assert len(roots) == len(log)
        for span, entry in zip(roots, log):
            assert span.start_s == entry.arrival_s
            assert span.end_s == entry.finish_s
            assert span.attrs["phase"] == entry.phase.value

    def test_request_spans_parent_the_controller_spans(self, tiny_function):
        with observing() as obs:
            self.serve(tiny_function)
        root = named(obs.tracer, "request/tiny")[0]
        kids = children(obs.tracer, root)
        assert any(s.name.startswith("invoke/") for s in kids)

    def test_shed_requests_become_aborted_spans(self, tiny_function):
        with observing() as obs:
            log = self.serve(tiny_function, overload=True)
        shed_entries = [e for e in log if e.shed]
        assert shed_entries, "overload config shed nothing"
        aborted = [
            s
            for s in named(obs.tracer, "request/tiny")
            if s.status is SpanStatus.ABORTED
        ]
        assert len(aborted) == len(shed_entries)
        counter = obs.metrics.get("toss_requests_shed_total")
        assert sum(counter.values.values()) == len(shed_entries)

    def test_queue_delay_histogram_covers_all_decisions(self, tiny_function):
        with observing() as obs:
            log = self.serve(tiny_function)
        hist = obs.metrics.get("toss_queue_delay_seconds")
        assert hist.count() == len(log)

    def test_platform_log_identical_under_observation(self, tiny_function):
        plain = self.serve(tiny_function)
        with observing():
            observed = self.serve(tiny_function)
        assert plain == observed

    def test_trace_is_deterministic_across_runs(self, tiny_function):
        with observing() as a:
            self.serve(tiny_function)
        with observing() as b:
            self.serve(tiny_function)
        assert perfetto_json(a.tracer) == perfetto_json(b.tracer)
