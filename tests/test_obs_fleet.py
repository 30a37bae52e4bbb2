"""Fleet aggregation (:mod:`repro.obs.fleet`) and the fleet report."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments import fleet_report
from repro.obs import (
    FleetAggregator,
    MetricsRegistry,
    prometheus_text,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestHostObservations:
    def test_children_are_lazy_and_cached(self):
        agg = FleetAggregator()
        assert agg.host_tracer_items() == []
        child = agg.host_observation(2)
        assert agg.host_observation(2) is child
        agg.host_observation(0)
        assert [hid for hid, _ in agg.host_tracer_items()] == [0, 2]

    def test_children_cannot_recurse(self):
        # A host's child observation must not carry an slo feed or a
        # nested aggregator — hosts aggregate into the fleet, never
        # into each other.
        child = FleetAggregator().host_observation(0)
        assert child.slo is None
        assert child.fleet is None

    def test_host_tracer_items_in_host_order(self):
        agg = FleetAggregator()
        for hid in (3, 1, 2):
            agg.host_observation(hid)
        assert [hid for hid, _ in agg.host_tracer_items()] == [1, 2, 3]


class TestFleetRegistry:
    def build(self) -> FleetAggregator:
        agg = FleetAggregator()
        for hid in (1, 0):
            reg = agg.host_observation(hid).metrics
            reg.counter("toss_requests_total", "requests").inc(
                10.0 + hid, outcome="served"
            )
            reg.gauge("toss_pool_pages", "pool").set(100.0 * (hid + 1))
            hist = reg.histogram("toss_setup_seconds", "setup")
            hist.observe(0.004 + 0.001 * hid, strategy="toss")
        return agg

    def test_host_labels_attached(self):
        text = prometheus_text(self.build().fleet_registry())
        assert 'toss_requests_total{host="0",outcome="served"} 10' in text
        assert 'toss_requests_total{host="1",outcome="served"} 11' in text
        assert 'toss_pool_pages{host="0"} 100' in text

    def test_histograms_merge_per_host(self):
        reg = self.build().fleet_registry()
        hist = reg.get("toss_setup_seconds")
        assert hist is not None
        q0 = hist.quantile(0.5, host="0", strategy="toss")
        q1 = hist.quantile(0.5, host="1", strategy="toss")
        assert q0 > 0.0 and q1 > 0.0

    def test_parent_families_kept_unlabelled(self):
        agg = self.build()
        parent = MetricsRegistry()
        parent.counter("toss_cluster_requests_total", "cluster").inc(
            21.0, outcome="served"
        )
        text = prometheus_text(agg.fleet_registry(parent=parent))
        assert 'toss_cluster_requests_total{outcome="served"} 21' in text

    def test_merge_accumulates_on_label_collision(self):
        # Two hosts observing the same histogram labelset must sum into
        # one fleet sample per host label — and a second merge of the
        # same children must not double-count (copy semantics).
        agg = FleetAggregator()
        hist = agg.host_observation(0).metrics.histogram("toss_h", "h")
        hist.observe(1.0)
        hist.observe(2.0)
        first = prometheus_text(agg.fleet_registry())
        second = prometheus_text(agg.fleet_registry())
        assert first == second
        assert 'toss_h_count{host="0"} 2' in second
        assert 'toss_h_sum{host="0"} 3' in second

    def test_rendered_text_is_deterministic(self):
        assert prometheus_text(self.build().fleet_registry()) == (
            prometheus_text(self.build().fleet_registry())
        )

    def test_empty_aggregator_renders_empty(self):
        assert prometheus_text(FleetAggregator().fleet_registry()) == ""


class TestFleetReport:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            fleet_report.run("fig42")

    def test_crash_scenario_matches_golden_fixtures(self):
        result = fleet_report.run("crash")
        assert result.alerts_jsonl == (
            FIXTURES / "fleet_report_crash_alerts.jsonl"
        ).read_text()
        assert result.fleet_prom == (
            FIXTURES / "fleet_report_crash_metrics.prom"
        ).read_text()

    def test_scrub_scenario_matches_golden_fixtures(self):
        # Bit rot, scrub passes and repairs all run on the cluster's
        # fleet timeline, so this pins the durability path end to end.
        result = fleet_report.run("scrub")
        assert result.cluster.durability.summary()["scrub_passes"] > 0
        assert result.alerts_jsonl == (
            FIXTURES / "fleet_report_scrub_alerts.jsonl"
        ).read_text()
        assert result.fleet_prom == (
            FIXTURES / "fleet_report_scrub_metrics.prom"
        ).read_text()

    def test_crash_scenario_artefacts(self):
        result = fleet_report.run("crash")
        # Host 0's outage must produce fired-and-resolved alerts.
        lines = [
            json.loads(line)
            for line in result.alerts_jsonl.splitlines()
        ]
        alerts = [rec for rec in lines if rec["kind"] == "alert"]
        assert alerts and all(a["slo"] == "availability" for a in alerts)
        assert any(a["resolved_at_s"] is not None for a in alerts)
        # Per-host Perfetto traces exist for every host that served.
        assert sorted(result.host_perfetto) == [
            hid for hid, _ in result.aggregator.host_tracer_items()
        ]
        for text in result.host_perfetto.values():
            json.loads(text)
        # The markdown summary names the scenario and tabulates hosts.
        assert "crash" in result.summary_md
        assert "| host0 |" in result.summary_md

    def test_observation_not_leaked(self):
        from repro.obs import runtime

        fleet_report.run("steady")
        assert runtime.active() is None
