"""SLO burn-rate alerting and statistical anomaly detection.

The evaluator implements the Google-SRE *multi-window, multi-burn-rate*
recipe on simulated time: an error-budget objective (e.g. 99.9 %
availability) is watched through pairs of long/short windows; an alert
fires when the burn rate — the observed error rate divided by the
budget ``1 - objective`` — exceeds the pair's threshold in *both*
windows (the long window gives the alert its significance, the short
window makes it resolve quickly once the burn stops).  Alerts are typed
:class:`Alert` records carrying fire/resolve instants in simulated
seconds, so two runs of the same workload produce byte-identical alert
streams.

Next to the thresholded SLO alerts sits a threshold-*free*
:class:`Anomaly` detector: an exponentially-weighted mean/variance per
signal (queue delay, fault rate, restore setup time) flags samples whose
z-score leaves the band the signal itself established — a regression
detector that needs no per-signal tuning.

Everything here is driven by the streaming sample feed the serving
layers push (:meth:`SloFeed.observe_request` /
:meth:`SloFeed.observe_signal`); nothing reads a wall clock.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

from .. import domains
from ..errors import ConfigError

__all__ = [
    "Alert",
    "Anomaly",
    "BurnWindow",
    "SloConfig",
    "SloFeed",
    "SloTracker",
]


@dataclass(frozen=True)
class BurnWindow:
    """One long/short window pair with its burn-rate threshold."""

    long_s: float = domains.real(gt=0.0)
    short_s: float = domains.real(gt=0.0)
    threshold: float = domains.real(gt=0.0)
    """Burn-rate multiple (1.0 = budget exhausted exactly at period end)
    that fires the alert when exceeded in both windows."""
    severity: str = "page"

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)
        if self.short_s > self.long_s:
            raise ConfigError(
                f"short window {self.short_s}s exceeds long window "
                f"{self.long_s}s"
            )


@dataclass(frozen=True)
class SloConfig:
    """An error-budget objective and the window pairs that watch it.

    The defaults are the canonical SRE-workbook pairs (5m/1h at 14.4x
    for paging, 30m/6h at 6x for ticketing) on *simulated* seconds;
    short simulated scenarios pass scaled-down windows instead.
    """

    name: str = "availability"
    objective: float = domains.real(0.999, gt=0.0, lt=1.0)
    windows: tuple[BurnWindow, ...] = (
        BurnWindow(long_s=3600.0, short_s=300.0, threshold=14.4,
                   severity="page"),
        BurnWindow(long_s=21600.0, short_s=1800.0, threshold=6.0,
                   severity="ticket"),
    )
    min_samples: int = domains.count(12, least=1)
    """Long-window samples required before the pair may fire (one early
    failure in an empty window is not a 100 % error rate worth paging)."""

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)
        if not self.windows:
            raise ConfigError("need at least one burn window")

    @property
    def budget(self) -> float:
        """The error budget ``1 - objective``."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class Alert:
    """One fired (and possibly resolved) burn-rate alert."""

    slo: str
    host: str
    """Host scope (``""`` for the fleet-wide evaluator)."""
    severity: str
    window_long_s: float
    window_short_s: float
    threshold: float
    fired_at_s: float
    burn_rate: float
    """Long-window burn rate at the instant the alert fired."""
    resolved_at_s: float | None = None
    """``None`` while the alert is still firing at end of stream."""

    def to_json(self) -> dict[str, object]:
        """A JSON-ready mapping (stable keys, plain scalars)."""
        return {
            "kind": "alert",
            "slo": self.slo,
            "host": self.host,
            "severity": self.severity,
            "window_long_s": self.window_long_s,
            "window_short_s": self.window_short_s,
            "threshold": self.threshold,
            "fired_at_s": round(self.fired_at_s, 9),
            "burn_rate": round(self.burn_rate, 9),
            "resolved_at_s": (
                round(self.resolved_at_s, 9)
                if self.resolved_at_s is not None
                else None
            ),
        }


@dataclass(frozen=True)
class Anomaly:
    """One sample whose z-score left its signal's EWMA band."""

    signal: str
    host: str
    at_s: float
    value: float
    zscore: float
    mean: float
    std: float

    def to_json(self) -> dict[str, object]:
        """A JSON-ready mapping (stable keys, plain scalars)."""
        return {
            "kind": "anomaly",
            "signal": self.signal,
            "host": self.host,
            "at_s": round(self.at_s, 9),
            "value": round(self.value, 9),
            "zscore": round(self.zscore, 6),
            "mean": round(self.mean, 9),
            "std": round(self.std, 9),
        }


@dataclass
class _OpenAlert:
    fired_at_s: float
    burn_rate: float


class _BurnEvaluator:
    """Burn rates over sliding windows for one scope (fleet or host).

    Samples are kept sorted by timestamp (``insort``), so slightly
    out-of-order feeds — finish times are not monotone across cores —
    land in their true window.  Evaluation is O(window) per sample,
    which is fine at the scenario sizes the simulator runs; the stream
    is deterministic, so so are the alerts.
    """

    def __init__(self, config: SloConfig, host: str) -> None:
        self.config = config
        self.host = host
        self._times: list[float] = []
        self._bads: list[int] = []
        self._cursor = 0.0
        self._open: dict[BurnWindow, _OpenAlert] = {}
        self.alerts: list[Alert] = []

    def _burn(self, window_s: float) -> tuple[float, int]:
        """(burn rate, sample count) over ``(cursor - window, cursor]``."""
        lo = bisect.bisect_right(self._times, self._cursor - window_s)
        n = len(self._times) - lo
        if n == 0:
            return 0.0, 0
        bad = sum(self._bads[lo:])
        return (bad / n) / self.config.budget, n

    def observe(self, at_s: float, good: bool) -> None:
        """Fold one request outcome in and re-evaluate every window."""
        at = float(at_s)
        idx = bisect.bisect_right(self._times, at)
        self._times.insert(idx, at)
        self._bads.insert(idx, 0 if good else 1)
        self._cursor = max(self._cursor, at)
        for window in self.config.windows:
            burn_long, n_long = self._burn(window.long_s)
            burn_short, _ = self._burn(window.short_s)
            firing = (
                n_long >= self.config.min_samples
                and burn_long >= window.threshold
                and burn_short >= window.threshold
            )
            open_alert = self._open.get(window)
            if firing and open_alert is None:
                self._open[window] = _OpenAlert(self._cursor, burn_long)
            elif not firing and open_alert is not None:
                del self._open[window]
                self.alerts.append(self._completed(window, open_alert,
                                                  self._cursor))

    def _completed(
        self, window: BurnWindow, open_alert: _OpenAlert,
        resolved_at_s: float | None,
    ) -> Alert:
        return Alert(
            slo=self.config.name,
            host=self.host,
            severity=window.severity,
            window_long_s=window.long_s,
            window_short_s=window.short_s,
            threshold=window.threshold,
            fired_at_s=open_alert.fired_at_s,
            burn_rate=open_alert.burn_rate,
            resolved_at_s=resolved_at_s,
        )

    def all_alerts(self) -> list[Alert]:
        """Resolved alerts plus the still-open ones (unresolved)."""
        out = list(self.alerts)
        for window in self.config.windows:
            open_alert = self._open.get(window)
            if open_alert is not None:
                out.append(self._completed(window, open_alert, None))
        return out

    @property
    def n_samples(self) -> int:
        return len(self._times)

    @property
    def n_bad(self) -> int:
        return sum(self._bads)


SIGNAL_ALPHA = 0.25
"""EWMA smoothing factor of every signal's mean and variance."""

SIGNAL_Z_THRESHOLD = 4.0
"""Absolute z-score at which a signal sample is flagged as an anomaly."""

SIGNAL_WARMUP = 16
"""Samples a signal's detector folds in before it may flag one."""


class _EwmaDetector:
    """EWMA mean/variance with z-score flagging for one signal."""

    def __init__(self) -> None:
        self.mean = 0.0
        self.var = 0.0
        self.n = 0

    def observe(self, value: float) -> tuple[float, float, float] | None:
        """Fold a sample in; returns ``(zscore, mean, std)`` when the
        sample is anomalous against the *pre-update* band."""
        flagged: tuple[float, float, float] | None = None
        if self.n >= SIGNAL_WARMUP:
            std = math.sqrt(self.var)
            if std > 0.0:
                z = (value - self.mean) / std
                if abs(z) >= SIGNAL_Z_THRESHOLD:
                    flagged = (z, self.mean, std)
        if self.n == 0:
            self.mean = value
            self.var = 0.0
        else:
            delta = value - self.mean
            self.mean += SIGNAL_ALPHA * delta
            self.var = (1.0 - SIGNAL_ALPHA) * (
                self.var + SIGNAL_ALPHA * delta * delta
            )
        self.n += 1
        return flagged


class SloFeed:
    """The two-method interface the serving layers push samples at.

    :class:`SloTracker` is the engine behind it; the serving layers hold
    whichever feed their :class:`~repro.obs.runtime.Observation` carries.
    """

    def observe_request(
        self, at_s: float, good: bool, *, host: str = ""
    ) -> None:
        """One settled request: ``good`` is the SLI numerator."""
        raise NotImplementedError

    def observe_signal(
        self, signal: str, value: float, at_s: float, *, host: str = ""
    ) -> None:
        """One scalar health-signal sample (queue delay, setup, ...)."""
        raise NotImplementedError


@dataclass(frozen=True)
class _ScopeKey:
    signal: str
    host: str


class SloTracker(SloFeed):
    """The streaming SLO engine: one fleet-wide burn evaluator, one per
    host label that appears in the feed, and an EWMA anomaly detector
    per ``(signal, host)`` pair."""

    def __init__(self, config: SloConfig = SloConfig()) -> None:
        self.config = config
        self._fleet = _BurnEvaluator(config, host="")
        self._hosts: dict[str, _BurnEvaluator] = {}
        self._detectors: dict[tuple[str, str], _EwmaDetector] = {}
        self.anomalies: list[Anomaly] = []

    # -- the feed --------------------------------------------------------------

    def observe_request(
        self, at_s: float, good: bool, *, host: str = ""
    ) -> None:
        """Fold one settled request into the fleet (and host) evaluator."""
        self._fleet.observe(at_s, good)
        if host:
            evaluator = self._hosts.get(host)
            if evaluator is None:
                evaluator = _BurnEvaluator(self.config, host=host)
                self._hosts[host] = evaluator
            evaluator.observe(at_s, good)

    def observe_signal(
        self, signal: str, value: float, at_s: float, *, host: str = ""
    ) -> None:
        """Fold one signal sample into its ``(signal, host)`` detector."""
        key = (signal, host)
        detector = self._detectors.get(key)
        if detector is None:
            detector = _EwmaDetector()
            self._detectors[key] = detector
        flagged = detector.observe(float(value))
        if flagged is not None:
            z, mean, std = flagged
            self.anomalies.append(
                Anomaly(
                    signal=signal,
                    host=host,
                    at_s=float(at_s),
                    value=float(value),
                    zscore=z,
                    mean=mean,
                    std=std,
                )
            )

    # -- results ---------------------------------------------------------------

    def alerts(self) -> list[Alert]:
        """Every alert (resolved and still-open), deterministically
        ordered by ``(fired_at_s, host, severity, long window)``."""
        out = self._fleet.all_alerts()
        for host in sorted(self._hosts):
            out.extend(self._hosts[host].all_alerts())
        out.sort(
            key=lambda a: (
                a.fired_at_s,
                a.host,
                a.severity,
                a.window_long_s,
            )
        )
        return out

    def hosts(self) -> list[str]:
        """Host labels seen in the request feed, sorted."""
        return sorted(self._hosts)

    def error_rate(self, host: str = "") -> float:
        """All-time bad fraction for a scope (0.0 with no samples)."""
        evaluator = self._fleet if not host else self._hosts.get(host)
        if evaluator is None or evaluator.n_samples == 0:
            return 0.0
        return evaluator.n_bad / evaluator.n_samples

    def sample_count(self, host: str = "") -> int:
        """Request samples folded into a scope's evaluator."""
        evaluator = self._fleet if not host else self._hosts.get(host)
        return evaluator.n_samples if evaluator is not None else 0

    def records_jsonl(self) -> str:
        """Alerts then anomalies, one deterministic JSON object per line.

        Alerts come first (ordered as :meth:`alerts`), anomalies after
        (ordered by ``(at_s, host, signal)``) — the ``kind`` field keys
        each line.
        """
        lines = [
            json.dumps(a.to_json(), sort_keys=True, separators=(",", ":"))
            for a in self.alerts()
        ]
        for anomaly in sorted(
            self.anomalies, key=lambda a: (a.at_s, a.host, a.signal)
        ):
            lines.append(
                json.dumps(
                    anomaly.to_json(), sort_keys=True, separators=(",", ":")
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

