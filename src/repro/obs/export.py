"""Exporters: Perfetto ``trace_event`` JSON, JSONL spans, Prometheus text.

All three are deterministic functions of the tracer/registry contents:
keys are sorted, spans are ordered by ``(start_s, span_id)``, floats are
rendered by :mod:`json`'s ``repr``-faithful formatting — two runs with
the same seed produce byte-identical files, which is what lets CI diff
an export against a committed golden fixture.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

from . import profile as profile_mod
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span, SpanEvent, SpanStatus, Tracer

__all__ = [
    "to_perfetto",
    "perfetto_json",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "prometheus_text",
]

_US = 1e6  # trace_event timestamps are microseconds


def _assign_lanes(spans: Sequence[Span]) -> dict[int, int]:
    """Greedy interval partitioning over spans in export order: concurrent
    root spans get distinct ``tid`` lanes so chrome://tracing stacks never
    interleave; children inherit their root's lane."""
    lanes: list[float] = []  # lane -> last end_s
    lane_of: dict[int, int] = {}
    parents = {s.span_id: s.parent_id for s in spans}

    def root_of(span_id: int) -> int:
        seen = set()
        while parents.get(span_id) is not None and span_id not in seen:
            seen.add(span_id)
            span_id = parents[span_id] or span_id
        return span_id

    for span in spans:
        if span.parent_id is None:
            for i, free_at in enumerate(lanes):
                if span.start_s >= free_at - 1e-12:
                    lanes[i] = span.end_s
                    lane_of[span.span_id] = i + 1
                    break
            else:
                lanes.append(span.end_s)
                lane_of[span.span_id] = len(lanes)
    for span in spans:
        if span.parent_id is not None:
            lane_of[span.span_id] = lane_of.get(root_of(span.span_id), 1)
    return lane_of


def _span_args(span: Span) -> dict[str, Any]:
    args: dict[str, Any] = {k: v for k, v in sorted(span.attrs.items())}
    args["span_id"] = span.span_id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.status is not SpanStatus.OK:
        args["status"] = span.status.value
    return args


def to_perfetto(
    tracer: Tracer, *, process_name: str = "repro-sim"
) -> dict[str, Any]:
    """The Chrome/Perfetto ``trace_event`` representation of a trace.

    Spans become complete events (``ph: "X"`` with ``ts``/``dur`` in
    microseconds of *simulated* time); span events and orphan events
    become thread-scoped instants (``ph: "i"``).  The result loads in
    ``chrome://tracing`` and https://ui.perfetto.dev.
    """
    with profile_mod.phase("export/perfetto"):
        return _to_perfetto(tracer, process_name=process_name)


def _to_perfetto(
    tracer: Tracer, *, process_name: str = "repro-sim"
) -> dict[str, Any]:
    spans = tracer.finished()
    lane_of = _assign_lanes(spans)
    events: list[dict[str, Any]] = [
        {
            "args": {"name": process_name},
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "ts": 0,
        }
    ]
    for span in spans:
        tid = lane_of.get(span.span_id, 1)
        events.append(
            {
                "args": _span_args(span),
                "cat": span.name.split("/", 1)[0],
                "dur": span.duration_s * _US,
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": span.start_s * _US,
            }
        )
        for ev in span.events:
            events.append(
                {
                    "args": {k: v for k, v in sorted(ev.attrs.items())},
                    "cat": span.name.split("/", 1)[0],
                    "name": ev.name,
                    "ph": "i",
                    "pid": 1,
                    "s": "t",
                    "tid": tid,
                    "ts": ev.at_s * _US,
                }
            )
    for ev in sorted(tracer.orphan_events, key=lambda e: (e.at_s, e.name)):
        events.append(
            {
                "args": {k: v for k, v in sorted(ev.attrs.items())},
                "cat": "platform",
                "name": ev.name,
                "ph": "i",
                "pid": 1,
                "s": "p",
                "tid": 0,
                "ts": ev.at_s * _US,
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def perfetto_json(tracer: Tracer, *, process_name: str = "repro-sim") -> str:
    """:func:`to_perfetto` serialised deterministically (sorted keys)."""
    return json.dumps(
        to_perfetto(tracer, process_name=process_name),
        sort_keys=True,
        indent=None,
        separators=(",", ":"),
    )


# -- JSONL round-trip --------------------------------------------------------


def spans_to_jsonl(tracer: Tracer) -> str:
    """One span per line, in ``(start_s, span_id)`` order; round-trips
    through :func:`spans_from_jsonl` to equal spans."""
    with profile_mod.phase("export/jsonl"):
        return _spans_to_jsonl(tracer)


def _spans_to_jsonl(tracer: Tracer) -> str:
    lines: list[str] = []
    for span in tracer.finished():
        lines.append(
            json.dumps(
                {
                    "attrs": span.attrs,
                    "end_s": span.end_s,
                    "events": [
                        {"at_s": e.at_s, "attrs": e.attrs, "name": e.name}
                        for e in span.events
                    ],
                    "name": span.name,
                    "parent_id": span.parent_id,
                    "span_id": span.span_id,
                    "start_s": span.start_s,
                    "status": span.status.value,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> list[Span]:
    """Reload a :func:`spans_to_jsonl` dump into equal :class:`Span`s."""
    spans: list[Span] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        spans.append(
            Span(
                span_id=int(raw["span_id"]),
                parent_id=raw["parent_id"],
                name=str(raw["name"]),
                start_s=float(raw["start_s"]),
                end_s=float(raw["end_s"]),
                status=SpanStatus(raw["status"]),
                attrs=dict(raw["attrs"]),
                events=[
                    SpanEvent(
                        name=str(e["name"]),
                        at_s=float(e["at_s"]),
                        attrs=dict(e["attrs"]),
                    )
                    for e in raw["events"]
                ],
            )
        )
    return spans


# -- Prometheus text format ----------------------------------------------------


def _fmt(value: float) -> str:
    """Prometheus sample value rendering (integers without the dot)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Exposition-format label-value escaping: backslash, double-quote
    and newline must be escaped inside the quoted value."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _bucket_le(upper: float) -> str:
    return _fmt(upper)


QUANTILES = (0.5, 0.95, 0.99)
"""The histogram quantiles :func:`prometheus_text` renders as gauges."""


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus exposition (text) format.

    Histograms render the standard ``_bucket``/``_sum``/``_count``
    series plus derived ``_p50``/``_p95``/``_p99`` gauge series computed
    by the same cumulative-bucket interpolation as
    ``histogram_quantile`` — pre-digested latency summaries that need no
    query layer.
    """
    with profile_mod.phase("export/prometheus"):
        return _prometheus_text(registry)


def _prometheus_text(registry: MetricsRegistry) -> str:
    lines: list[str] = []
    for family in registry.families():
        if isinstance(family, Counter):
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} counter")
            for labels in sorted(family.values):
                lines.append(
                    f"{family.name}{_labels_text(labels)} "
                    f"{_fmt(family.values[labels])}"
                )
        elif isinstance(family, Gauge):
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} gauge")
            for labels in sorted(family.values):
                lines.append(
                    f"{family.name}{_labels_text(labels)} "
                    f"{_fmt(family.values[labels])}"
                )
        elif isinstance(family, Histogram):
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} histogram")
            for labels in sorted(family.samples):
                sample = family.samples[labels]
                cumulative = 0
                for upper, count in zip(family.buckets, sample.counts):
                    cumulative += count
                    le = labels + (("le", _bucket_le(upper)),)
                    lines.append(
                        f"{family.name}_bucket{_labels_text(le)} {cumulative}"
                    )
                le_inf = labels + (("le", "+Inf"),)
                lines.append(
                    f"{family.name}_bucket{_labels_text(le_inf)} {sample.n}"
                )
                lines.append(
                    f"{family.name}_sum{_labels_text(labels)} "
                    f"{_fmt(sample.total)}"
                )
                lines.append(
                    f"{family.name}_count{_labels_text(labels)} {sample.n}"
                )
            for q in QUANTILES:
                suffix = f"p{int(round(q * 100))}"
                lines.append(
                    f"# HELP {family.name}_{suffix} {q:g}-quantile of "
                    f"{family.name} (bucket interpolation)"
                )
                lines.append(f"# TYPE {family.name}_{suffix} gauge")
                for labels in sorted(family.samples):
                    value = family.quantile(q, **dict(labels))
                    lines.append(
                        f"{family.name}_{suffix}{_labels_text(labels)} "
                        f"{_fmt(value)}"
                    )
    return "\n".join(lines) + ("\n" if lines else "")
