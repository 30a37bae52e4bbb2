"""Hierarchical spans on the simulated timeline.

A :class:`Span` is one timed operation — a restore phase, a transfer on a
shared resource, a request's life on the platform.  Spans nest: the
:class:`Tracer` keeps a stack, so a span opened while another is active
becomes its child.  All timestamps are *simulated* seconds, read from
the tracer's own **cursor**.  The cursor serialises the analytic paths
(restores computed as closed-form sums, controller invocations driven
outside a loop) onto one deterministic virtual timeline: recording a
span with an explicit duration advances the cursor, so consecutive
phases lay out left-to-right exactly like the setup-time sum that
defines them.  Callers that know simulated time (the platform anchoring
a request at its start instant) move the cursor with
:meth:`Tracer.seek` or pass explicit start and end times.

Nothing here reads the wall clock — ever — so traces are reproducible
and diffable in CI.
"""

from __future__ import annotations

import enum
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Union

from ..errors import ConfigError

__all__ = ["AttrValue", "Span", "SpanEvent", "SpanStatus", "Tracer"]

AttrValue = Union[bool, int, float, str, None]
"""Span attribute values: JSON scalars only, so exports never surprise."""


class SpanStatus(enum.Enum):
    """How a span ended."""

    OK = "ok"
    ERROR = "error"
    ABORTED = "aborted"


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation attached to a span (or to the trace)."""

    name: str
    at_s: float
    attrs: dict[str, AttrValue] = field(default_factory=dict)


@dataclass
class Span:
    """One timed, attributed, status-carrying operation.

    ``span_id`` is assigned from a per-tracer counter (deterministic);
    ``parent_id`` is ``None`` for root spans.  ``end_s`` is meaningful
    only once the span is closed.
    """

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float = 0.0
    status: SpanStatus = SpanStatus.OK
    attrs: dict[str, AttrValue] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Closed span duration in simulated seconds."""
        return self.end_s - self.start_s


def _finite(value: float, what: str, span: str | None = None) -> float:
    """``value`` as a float, or :class:`ConfigError` if NaN or infinite:
    a non-finite time would export as invalid JSON."""
    value = float(value)
    if not math.isfinite(value):
        where = "" if span is None else f" of span {span!r}"
        raise ConfigError(f"{what}{where} must be finite, got {value}")
    return value


class Tracer:
    """Collects spans with parent/child links on simulated time.

    ``spans`` holds finished spans in close order; exporters sort by
    ``(start_s, span_id)``.  ``orphan_events`` collects events recorded
    while no span was open (deferred platform telemetry) — they become
    instant events in the Perfetto export.
    """

    def __init__(self) -> None:
        self._cursor = 0.0
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self.orphan_events: list[SpanEvent] = []

    # -- time ------------------------------------------------------------------

    def now(self) -> float:
        """The current position on the trace timeline."""
        return self._cursor

    def seek(self, at_s: float) -> None:
        """Re-anchor the cursor (callers that know simulated time, e.g.
        the platform anchoring a request's spans at its start instant)."""
        self._cursor = _finite(at_s, "seek time")

    # -- spans -----------------------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def start_span(
        self,
        name: str,
        *,
        start_s: float | None = None,
        attrs: dict[str, AttrValue] | None = None,
    ) -> Span:
        """Open a span (child of the current one) and make it current."""
        start = self.now() if start_s is None else _finite(start_s, "start", name)
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(next(self._ids), parent, name, start, start)
        if attrs:
            span.attrs.update(attrs)
        self._stack.append(span)
        return span

    def end_span(
        self,
        span: Span,
        *,
        end_s: float | None = None,
        status: SpanStatus | None = None,
    ) -> Span:
        """Close the current span; without ``end_s`` it ends at the cursor
        (wherever its recorded children advanced it)."""
        if not self._stack or self._stack[-1] is not span:
            raise ConfigError(
                f"span {span.name!r} is not the innermost open span"
            )
        end = self.now() if end_s is None else _finite(end_s, "end", span.name)
        self._stack.pop()
        span.end_s = max(end, span.start_s)
        if status is not None:
            span.status = status
        self._cursor = max(self._cursor, span.end_s)
        self.spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        start_s: float | None = None,
        attrs: dict[str, AttrValue] | None = None,
    ) -> Iterator[Span]:
        """Context-managed span; an escaping exception marks it ERROR."""
        span = self.start_span(name, start_s=start_s, attrs=attrs)
        try:
            yield span
        except BaseException:
            self.end_span(span, status=SpanStatus.ERROR)
            raise
        else:
            self.end_span(span)

    def record(
        self,
        name: str,
        duration_s: float,
        *,
        start_s: float | None = None,
        attrs: dict[str, AttrValue] | None = None,
        status: SpanStatus = SpanStatus.OK,
    ) -> Span:
        """Record an already-measured span and advance the cursor past it.

        This is how analytic phases (known closed-form durations) become
        trace entries: consecutive ``record`` calls lay out sequentially,
        so their durations sum exactly like the formula that produced
        them.
        """
        if _finite(duration_s, "duration", name) < 0:
            raise ConfigError(f"span {name!r} cannot last {duration_s} s")
        start = self.now() if start_s is None else _finite(start_s, "start", name)
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            next(self._ids), parent, name, start, start + duration_s, status
        )
        if attrs:
            span.attrs.update(attrs)
        self._cursor = max(self._cursor, span.end_s)
        self.spans.append(span)
        return span

    def event(
        self,
        name: str,
        *,
        at_s: float | None = None,
        attrs: dict[str, AttrValue] | None = None,
    ) -> SpanEvent:
        """Attach a point event to the current span (or the trace)."""
        event = SpanEvent(name, self.now() if at_s is None else float(at_s),
                          dict(attrs) if attrs else {})
        if self._stack:
            self._stack[-1].events.append(event)
        else:
            self.orphan_events.append(event)
        return event

    # -- queries ---------------------------------------------------------------

    def finished(self, name_prefix: str = "") -> list[Span]:
        """Closed spans (optionally filtered by name prefix), in
        ``(start_s, span_id)`` order — the export order."""
        spans = [s for s in self.spans if s.name.startswith(name_prefix)]
        spans.sort(key=lambda s: (s.start_s, s.span_id))
        return spans

    def children_of(self, span: Span) -> list[Span]:
        """Closed direct children of a span, in export order."""
        kids = [s for s in self.spans if s.parent_id == span.span_id]
        kids.sort(key=lambda s: (s.start_s, s.span_id))
        return kids
