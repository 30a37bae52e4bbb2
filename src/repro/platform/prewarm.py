"""Predictive pre-warming (Section VI-A's second composition).

The paper notes that prediction-based systems "predict the request
patterns to set up the function before the next invocation", and that
TOSS composes: "TOSS can load the VM before the predicted function
execution".  This module provides that predictor: an EWMA over
inter-arrival times per function, plus the policy deciding whether a
restore started at the predicted time would have finished before the
actual arrival (in which case the request sees zero setup latency).

Timer-driven functions (fixed intervals) predict almost perfectly;
Poisson traffic yields partial hit rates — which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import domains
from ..errors import ConfigError, SchedulerError

__all__ = ["ArrivalPredictor", "PrewarmPolicy"]


ALPHA = 0.3
"""EWMA smoothing factor of the inter-arrival gap."""


class ArrivalPredictor:
    """EWMA inter-arrival predictor for one function."""

    def __init__(self) -> None:
        self._last_arrival: float | None = None
        self._ewma_gap: float | None = None

    def observe(self, arrival_s: float) -> None:
        """Record an arrival (must be non-decreasing)."""
        if self._last_arrival is not None:
            if arrival_s < self._last_arrival:
                raise SchedulerError("arrivals must be non-decreasing")
            gap = arrival_s - self._last_arrival
            if self._ewma_gap is None:
                self._ewma_gap = gap
            else:
                self._ewma_gap += ALPHA * (gap - self._ewma_gap)
        self._last_arrival = arrival_s

    def predict_next(self) -> float | None:
        """Predicted time of the next arrival (None before two samples)."""
        if self._last_arrival is None or self._ewma_gap is None:
            return None
        return self._last_arrival + self._ewma_gap

    @property
    def last_arrival(self) -> float | None:
        """Time of the most recently observed arrival."""
        return self._last_arrival


@dataclass
class PrewarmPolicy:
    """Decides whether a restore beats the next arrival.

    A restore launched ``margin_s`` before the predicted arrival hides
    the setup iff the request lands no earlier than
    ``predicted - margin + setup`` (the restore finished in time).
    Pre-warming too eagerly wastes memory, so the policy also refuses to
    fire when the prediction is further out than ``horizon_s``.
    """

    margin_s: float = domains.real(0.05, ge=0.0)
    horizon_s: float = domains.real(120.0, ge=0.0)
    predictors: dict[str, ArrivalPredictor] = field(default_factory=dict)
    hits: int = domains.count(0)
    misses: int = domains.count(0)
    enabled: bool = True
    """Pressure switch: the overload ladder suspends pre-warming (every
    speculative restore is pinned memory the platform cannot spare) once
    the platform leaves HEALTHY.  Predictors keep observing arrivals so
    prediction quality survives the suspension."""
    fleet_throttled: bool = False
    """Cluster-level pressure switch: a degraded *fleet* suspends
    pre-warming on every host during recovery storms, independently of
    (and overriding) the host's own ladder, which only writes
    :attr:`enabled`."""

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)

    def observe(self, name: str, arrival_s: float) -> None:
        """Feed one arrival into the function's predictor."""
        self.predictors.setdefault(name, ArrivalPredictor()).observe(arrival_s)

    def would_hide_setup(
        self, name: str, arrival_s: float, setup_time_s: float
    ) -> bool:
        """Whether a pre-warmed restore was ready before this arrival.

        Call *before* :meth:`observe` for the same arrival (the platform
        predicts from past arrivals only).
        """
        if not self.enabled or self.fleet_throttled:
            # Suspended under pressure: no speculative restores happen,
            # so nothing can be hidden.
            self.misses += 1
            return False
        predictor = self.predictors.get(name)
        predicted = predictor.predict_next() if predictor else None
        if predictor is None or predicted is None:
            self.misses += 1
            return False
        # The horizon is the prediction's lead time from the last arrival
        # actually observed — how far ahead the platform would have to
        # commit speculative memory.  (Comparing against the arrival being
        # judged would always yield ~0 and never suppress anything.)
        last = predictor.last_arrival
        if last is None or predicted - last > self.horizon_s:
            self.misses += 1
            return False
        launch = predicted - self.margin_s
        ready = launch + setup_time_s
        hidden = ready <= arrival_s
        if hidden:
            self.hits += 1
        else:
            self.misses += 1
        return hidden

    @property
    def hit_rate(self) -> float:
        """Fraction of arrivals whose setup was hidden."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
