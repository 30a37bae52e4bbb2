"""SLO burn-rate alerting and anomaly detection (:mod:`repro.obs.slo`)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs import (
    Alert,
    BurnWindow,
    SloConfig,
    SloTracker,
)

FAST = SloConfig(
    name="availability",
    objective=0.9,
    windows=(
        BurnWindow(long_s=4.0, short_s=1.0, threshold=2.0, severity="page"),
    ),
    min_samples=4,
)


def feed(tracker: SloTracker, outcomes: list[tuple[float, bool]],
         host: str = "") -> None:
    for at_s, good in outcomes:
        tracker.observe_request(at_s, good, host=host)


class TestConfigValidation:
    def test_objective_bounds(self):
        with pytest.raises(ConfigError):
            SloConfig(objective=1.0)
        with pytest.raises(ConfigError):
            SloConfig(objective=0.0)

    def test_short_window_cannot_exceed_long(self):
        with pytest.raises(ConfigError):
            BurnWindow(long_s=10.0, short_s=20.0, threshold=1.0)

    def test_windows_required(self):
        with pytest.raises(ConfigError):
            SloConfig(windows=())

    def test_budget_is_complement(self):
        assert SloConfig(objective=0.999).budget == pytest.approx(0.001)


class TestBurnRateAlerting:
    def test_all_good_never_fires(self):
        tracker = SloTracker(FAST)
        feed(tracker, [(i * 0.1, True) for i in range(50)])
        assert tracker.alerts() == []

    def test_sustained_burn_fires_and_resolves(self):
        tracker = SloTracker(FAST)
        # Good traffic, then a burst of failures, then recovery: the
        # alert must fire during the burst and resolve once the short
        # window drains.
        feed(tracker, [(i * 0.1, True) for i in range(20)])        # 0..2s
        feed(tracker, [(2.0 + i * 0.1, False) for i in range(10)])  # 2..3s
        feed(tracker, [(3.0 + i * 0.1, True) for i in range(40)])   # 3..7s
        alerts = tracker.alerts()
        assert len(alerts) == 1
        (alert,) = alerts
        assert alert.severity == "page"
        assert 2.0 <= alert.fired_at_s <= 3.0
        assert alert.resolved_at_s is not None
        assert alert.resolved_at_s > alert.fired_at_s
        assert alert.burn_rate >= FAST.windows[0].threshold

    def test_burn_rate_is_error_rate_over_budget(self):
        tracker = SloTracker(FAST)
        # 50% errors against a 10% budget = burn 5x.
        feed(tracker, [(i * 0.1, i % 2 == 0) for i in range(20)])
        (alert,) = tracker.alerts()
        assert alert.burn_rate == pytest.approx(5.0, rel=0.3)

    def test_short_window_gates_stale_burns(self):
        # Errors long past still sit in the long window, but the short
        # window has drained — no alert may fire on stale damage alone.
        cfg = SloConfig(
            objective=0.9,
            windows=(BurnWindow(long_s=8.0, short_s=0.5, threshold=2.0),),
            min_samples=4,
        )
        tracker = SloTracker(cfg)
        feed(tracker, [(i * 0.1, False) for i in range(6)])    # 0..0.6s
        feed(tracker, [(2.0 + i * 0.1, True) for i in range(30)])
        alerts = tracker.alerts()
        # The burst itself fires; the key claim is that it RESOLVES once
        # the short window drains even though the long window still
        # carries the errors.
        assert all(a.resolved_at_s is not None for a in alerts)

    def test_min_samples_suppresses_early_noise(self):
        tracker = SloTracker(FAST)
        tracker.observe_request(0.0, False)
        tracker.observe_request(0.1, False)
        assert tracker.alerts() == []  # < min_samples, never fired

    def test_open_alert_reported_unresolved(self):
        tracker = SloTracker(FAST)
        feed(tracker, [(i * 0.1, False) for i in range(10)])
        (alert,) = tracker.alerts()
        assert alert.resolved_at_s is None

    def test_per_host_evaluators_are_independent(self):
        tracker = SloTracker(FAST)
        feed(tracker, [(i * 0.1, False) for i in range(10)], host="host0")
        feed(tracker, [(i * 0.1, True) for i in range(10)], host="host1")
        hosts = {a.host for a in tracker.alerts()}
        assert "host0" in hosts
        assert "host1" not in hosts
        # The fleet evaluator sees both hosts' samples.
        assert tracker.sample_count() == 20
        assert tracker.sample_count("host0") == 10

    def test_out_of_order_samples_land_in_their_window(self):
        a = SloTracker(FAST)
        b = SloTracker(FAST)
        samples = [(i * 0.1, i % 2 == 0) for i in range(20)]
        feed(a, samples)
        feed(b, [samples[1], samples[0]] + samples[2:])
        assert a.error_rate() == b.error_rate()

    def test_alert_order_is_deterministic(self):
        def build() -> list[Alert]:
            tracker = SloTracker(
                SloConfig(
                    objective=0.9,
                    windows=(
                        BurnWindow(4.0, 1.0, 2.0, "page"),
                        BurnWindow(8.0, 2.0, 1.0, "ticket"),
                    ),
                    min_samples=4,
                )
            )
            feed(tracker, [(i * 0.1, False) for i in range(10)], host="h1")
            feed(tracker, [(i * 0.1, False) for i in range(10)], host="h0")
            return tracker.alerts()

        first, second = build(), build()
        assert first == second
        keys = [
            (a.fired_at_s, a.host, a.severity, a.window_long_s)
            for a in first
        ]
        assert keys == sorted(keys)


class TestAnomalyDetection:
    def test_flat_signal_never_flags(self):
        tracker = SloTracker(FAST)
        for i in range(100):
            tracker.observe_signal("queue_delay_s", 0.01, i * 0.1)
        assert tracker.anomalies == []

    def test_spike_flags_without_thresholds(self):
        tracker = SloTracker(FAST)
        for i in range(50):
            noise = 0.001 * (1 + (i % 3))  # small, bounded variation
            tracker.observe_signal("restore_setup_s", 0.01 + noise, i * 0.1)
        tracker.observe_signal("restore_setup_s", 1.0, 5.0)  # 100x spike
        assert len(tracker.anomalies) == 1
        (anomaly,) = tracker.anomalies
        assert anomaly.signal == "restore_setup_s"
        assert anomaly.at_s == 5.0
        assert abs(anomaly.zscore) >= 4.0

    def test_warmup_suppresses_flags(self):
        tracker = SloTracker(FAST)
        tracker.observe_signal("fault_rate", 0.0, 0.0)
        tracker.observe_signal("fault_rate", 100.0, 0.1)  # wild, but early
        assert tracker.anomalies == []

    def test_signals_keyed_per_host(self):
        tracker = SloTracker(FAST)
        for i in range(50):
            tracker.observe_signal("queue_delay_s", 0.01 + 0.001 * (i % 3),
                                   i * 0.1, host="h0")
            tracker.observe_signal("queue_delay_s", 5.0 + 0.5 * (i % 3),
                                   i * 0.1, host="h1")
        # h1's large values are NORMAL for h1 — no cross-host bleed.
        assert tracker.anomalies == []


class TestRecordsJsonl:
    def test_deterministic_jsonl_stream(self):
        def build() -> str:
            tracker = SloTracker(FAST)
            feed(tracker, [(i * 0.1, i % 2 == 0) for i in range(20)],
                 host="host0")
            for i in range(50):
                tracker.observe_signal("fault_rate", 0.001 * (i % 3),
                                       i * 0.1)
            tracker.observe_signal("fault_rate", 9.0, 5.0)
            return tracker.records_jsonl()

        text = build()
        assert text == build()
        kinds = [json.loads(line)["kind"] for line in text.splitlines()]
        assert "alert" in kinds and "anomaly" in kinds
        # Alerts come first, then anomalies.
        assert kinds == sorted(kinds)

    def test_empty_tracker_is_empty_stream(self):
        assert SloTracker(FAST).records_jsonl() == ""
