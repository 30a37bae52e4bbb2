"""Tests for the span/tracer layer (:mod:`repro.obs.spans`)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.obs import Span, SpanStatus, Tracer


class TestTracerTime:
    def test_cursor_starts_at_zero(self):
        assert Tracer().now() == 0.0

    def test_record_advances_cursor(self):
        tracer = Tracer()
        tracer.record("a", 1.5)
        tracer.record("b", 0.5)
        assert tracer.now() == 2.0

    def test_records_lay_out_sequentially(self):
        tracer = Tracer()
        a = tracer.record("a", 1.5)
        b = tracer.record("b", 0.5)
        assert (a.start_s, a.end_s) == (0.0, 1.5)
        assert (b.start_s, b.end_s) == (1.5, 2.0)

    def test_seek_reanchors_even_backward(self):
        tracer = Tracer()
        tracer.record("a", 5.0)
        tracer.seek(2.0)
        span = tracer.record("b", 1.0)
        assert span.start_s == 2.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            Tracer().record("a", -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_times_rejected(self, bad):
        """NaN/inf would export as invalid JSON (``"dur":NaN``), so every
        entry point that takes a time refuses them and records nothing."""
        tracer = Tracer()
        with pytest.raises(ConfigError):
            tracer.record("a", bad)
        with pytest.raises(ConfigError):
            tracer.record("a", 1.0, start_s=bad)
        with pytest.raises(ConfigError):
            tracer.start_span("a", start_s=bad)
        with pytest.raises(ConfigError):
            tracer.seek(bad)
        span = tracer.start_span("open")
        with pytest.raises(ConfigError):
            tracer.end_span(span, end_s=bad)
        assert tracer.current is span
        tracer.end_span(span)
        assert [s.name for s in tracer.spans] == ["open"]
        assert tracer.now() == 0.0


class TestNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                pass
        assert parent.parent_id is None
        assert child.parent_id == parent.span_id
        assert tracer.children_of(parent) == [child]

    def test_recorded_span_is_child_of_open_span(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            leaf = tracer.record("leaf", 0.25)
        assert leaf.parent_id == parent.span_id
        # The parent closed at the cursor its child advanced.
        assert parent.end_s == leaf.end_s

    def test_ending_non_innermost_span_rejected(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(ConfigError):
            tracer.end_span(outer)

    def test_exception_marks_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.status is SpanStatus.ERROR

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        span = tracer.start_span("s")
        assert tracer.current is span
        tracer.end_span(span)
        assert tracer.current is None


class TestEvents:
    def test_event_attaches_to_current_span(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            tracer.event("milestone", attrs={"k": 1})
        assert [e.name for e in span.events] == ["milestone"]
        assert span.events[0].attrs == {"k": 1}

    def test_event_without_span_is_orphan(self):
        tracer = Tracer()
        tracer.event("stray", at_s=4.5)
        assert [e.name for e in tracer.orphan_events] == ["stray"]
        assert tracer.orphan_events[0].at_s == 4.5


class TestQueries:
    def test_ids_are_deterministic(self):
        def build() -> list[int]:
            tracer = Tracer()
            tracer.record("a", 1.0)
            with tracer.span("b"):
                tracer.record("c", 1.0)
            return [s.span_id for s in tracer.finished()]

        assert build() == build()

    def test_finished_orders_by_start_then_id(self):
        tracer = Tracer()
        tracer.record("late", 1.0, start_s=5.0)
        tracer.seek(0.0)
        tracer.record("early", 1.0)
        assert [s.name for s in tracer.finished()] == ["early", "late"]

    def test_finished_filters_by_prefix(self):
        tracer = Tracer()
        tracer.record("restore/toss", 1.0)
        tracer.record("execute", 1.0)
        assert [s.name for s in tracer.finished("restore/")] == ["restore/toss"]

    def test_duration_property(self):
        span = Span(1, None, "x", 2.0, 3.5)
        assert span.duration_s == 1.5
