"""Simulation-time observability: spans, metrics, and exporters.

Everything in here runs on *simulated* clocks — span timestamps come from
the event kernel (or the tracer's own deterministic cursor), never from
wall time, so two runs with the same seed export byte-identical traces.

The layer is opt-in and zero-overhead when off: hot paths consult
:func:`repro.obs.runtime.active` (a module-global ``None`` check) and do
nothing unless an :class:`~repro.obs.runtime.Observation` has been
activated.  Activating one turns each restore phase, tier/SSD transfer,
controller lifecycle step and platform request into a
:class:`~repro.obs.spans.Span`, and feeds the
:class:`~repro.obs.metrics.MetricsRegistry` counters/gauges/histograms.

Exports (:mod:`repro.obs.export`): Chrome/Perfetto ``trace_event`` JSON
(loads in ``chrome://tracing``), a JSONL span dump that round-trips, and
Prometheus text format with derived p50/p95/p99 series.
"""

from .export import (
    perfetto_json,
    prometheus_text,
    spans_from_jsonl,
    spans_to_jsonl,
    to_perfetto,
)
from .fleet import FleetAggregator
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import PhaseProfiler
from .runtime import Observation, activate, active, deactivate, observing
from .slo import (
    Alert,
    Anomaly,
    BurnWindow,
    SloConfig,
    SloTracker,
)
from .spans import Span, SpanEvent, SpanStatus, Tracer

__all__ = [
    "Alert",
    "Anomaly",
    "BurnWindow",
    "Counter",
    "FleetAggregator",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "PhaseProfiler",
    "SloConfig",
    "SloTracker",
    "Span",
    "SpanEvent",
    "SpanStatus",
    "Tracer",
    "activate",
    "active",
    "deactivate",
    "observing",
    "perfetto_json",
    "prometheus_text",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "to_perfetto",
]
