"""Overload resilience: admission control, deadlines, breakers, health ladder.

The platform's north star is heavy traffic, and heavy traffic means
overload: bursts that outrun the core pool, slow-tier brownouts (now
injectable via :mod:`repro.faults`) that inflate exactly the setup path
TOSS optimizes, and hosts whose DRAM budget fills up.  This module is the
policy layer the platform consults before and after every request:

* **bounded admission** — queue-depth/queue-delay limits with priority
  classes (:class:`RequestClass`).  Batch traffic over the limit is shed
  with a typed reason (:class:`ShedReason`); latency traffic is never
  shed by a limit — it is forced onto the cheap all-DRAM fallback path
  instead, so the queue drains.
* **deadlines** — each request's deadline defaults to its DRAM-baseline
  service time times an SLO factor; restores that would blow it are
  aborted (the abort cost stays billed) and served on the vanilla lazy
  path.
* **per-function circuit breakers** — consecutive fault/deadline
  failures trip ``CLOSED -> OPEN``; after a deterministic cool-down in
  simulated time the breaker half-opens and one probe decides whether it
  closes again.
* **a degradation ladder** — a platform-wide health state machine
  (``HEALTHY -> PRESSURED -> DEGRADED -> SHEDDING``) driven by queue
  delay, fault rate, and host-capacity pressure, which progressively
  disables pre-warming, evicts keep-alive VMs, forces serving back to
  DRAM-like fallbacks, and finally sheds batch-class traffic.

Everything here is pure simulated time and consumes no RNG; the
all-permissive :class:`OverloadConfig` (the default) is the identity —
a platform carrying it serves byte-identically to one with no overload
policy at all, which the test suite asserts.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from .. import domains
from ..errors import ConfigError

__all__ = [
    "RequestClass",
    "ShedReason",
    "OverloadConfig",
    "BreakerState",
    "CircuitBreaker",
    "HealthState",
    "DegradationLadder",
    "OverloadPolicy",
]


class RequestClass(enum.Enum):
    """Priority class of a request."""

    LATENCY = "latency"
    BATCH = "batch"


class ShedReason(enum.Enum):
    """Why a request was shed instead of served."""

    QUEUE_DEPTH = "queue-depth"
    QUEUE_DELAY = "queue-delay"
    FUNCTION_DEPTH = "function-depth"
    CAPACITY = "capacity"
    DEADLINE = "deadline"
    BREAKER_OPEN = "breaker-open"
    SHEDDING = "shedding"


@dataclass(frozen=True)
class OverloadConfig:
    """Overload-resilience tuning.  Every knob defaults to *off*: the
    default config is the identity and a platform carrying it behaves
    byte-identically to one with no overload policy at all.

    Admission

    * ``max_queue_depth`` — platform-wide cap on admitted-but-not-started
      requests.
    * ``max_queue_delay_s`` — cap on a request's predicted wait for a
      free core.
    * ``max_function_depth`` — per-function cap on in-flight requests.

    Limits shed :attr:`RequestClass.BATCH` traffic; latency-class
    requests are forced onto the all-DRAM fallback path instead.

    Deadlines

    * ``slo_factor`` — a request's deadline is
      ``arrival + slo_factor * (VM state load + DRAM-baseline time)``.
      Hopeless batch requests are shed at admission; a tiered restore
      whose setup would blow the remaining budget is aborted (the abort
      cost stays billed) and retried on the vanilla lazy path.

    Circuit breakers (per function)

    * ``breaker_failures`` — consecutive failures that trip the breaker.
    * ``breaker_cooldown_s`` — simulated-time cool-down before the
      breaker half-opens and admits one probe.
    * ``breaker_fail_fast`` — while open, shed batch traffic outright
      instead of serving it via fallback (latency traffic always falls
      back, never fail-fasts).

    Degradation ladder

    * ``pressured_delay_s`` / ``degraded_delay_s`` / ``shedding_delay_s``
      — EWMA queue-delay thresholds entering each state.
    * ``delay_alpha`` — EWMA smoothing factor.
    * ``exit_factor`` — hysteresis: a state is left only once its entry
      signal drops below ``threshold * exit_factor``.
    * ``fault_window`` / ``degraded_fault_rate`` — fraction of failures
      over the last ``fault_window`` outcomes that forces DEGRADED.
    * ``pressured_capacity_fraction`` — host fast-tier pressure that
      forces PRESSURED.
    * ``keepalive_pressure_fraction`` — keep-alive budget fraction the
      cache is shrunk to while PRESSURED (DEGRADED evicts everything).
    """

    max_queue_depth: int | None = domains.optional(domains.count(least=1))
    max_queue_delay_s: float | None = domains.optional(domains.real(ge=0.0))
    max_function_depth: int | None = domains.optional(domains.count(least=1))
    slo_factor: float | None = domains.optional(domains.real(gt=0.0))
    breaker_failures: int | None = domains.optional(domains.count(least=1))
    breaker_cooldown_s: float = domains.real(5.0, gt=0.0)
    breaker_fail_fast: bool = False
    pressured_delay_s: float | None = domains.optional(domains.real(gt=0.0))
    degraded_delay_s: float | None = domains.optional(domains.real(gt=0.0))
    shedding_delay_s: float | None = domains.optional(domains.real(gt=0.0))
    delay_alpha: float = domains.real(0.3, gt=0.0, le=1.0)
    exit_factor: float = domains.real(0.5, gt=0.0, lt=1.0)
    fault_window: int = domains.count(20, least=1)
    degraded_fault_rate: float | None = domains.optional(
        domains.real(gt=0.0, le=1.0)
    )
    pressured_capacity_fraction: float | None = domains.optional(
        domains.real(gt=0.0, le=1.0)
    )
    keepalive_pressure_fraction: float = domains.probability(0.5)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)
        set_thresholds = [
            t
            for t in (
                self.pressured_delay_s,
                self.degraded_delay_s,
                self.shedding_delay_s,
            )
            if t is not None
        ]
        if set_thresholds != sorted(set_thresholds):
            raise ConfigError(
                "ladder delay thresholds must be non-decreasing "
                "(pressured <= degraded <= shedding)"
            )


# -- circuit breaker -----------------------------------------------------------


class BreakerState(enum.Enum):
    """Circuit-breaker lifecycle states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-function breaker: ``CLOSED -> OPEN -> HALF_OPEN`` on simulated
    time.

    ``record_outcome`` counts consecutive failures of the *tiered* serving
    path; reaching the threshold opens the breaker.  After
    ``cooldown_s`` of simulated time the breaker half-opens and admits
    exactly one probe: its success closes the breaker, its failure
    re-opens it for another cool-down.  While the probe is in flight,
    :meth:`try_acquire_probe` refuses further probes — concurrent
    requests arriving half-open are served via fallback (or shed, for
    fail-fast batch traffic) instead of stampeding the recovering path.
    Fallback-served requests are not recorded — they say nothing about
    the tiered path's health.

    The probe stays in flight in *simulated* time: its outcome is
    stashed by :meth:`record_outcome` and applied by the first
    :meth:`poll` at or after the probe's finish timestamp.  A request
    arriving while the probe is still running must not see a breaker
    state that already incorporates an outcome from its future — it is
    gated to the fallback path like any other half-open arrival.
    """

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        # The domains OverloadConfig declares for breaker_failures and
        # breaker_cooldown_s.
        domains.check_value(
            domains.CountDomain(1), threshold, "breaker threshold", ConfigError
        )
        domains.check_value(
            domains.RealDomain(0.0), cooldown_s, "breaker cooldown", ConfigError
        )
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s = 0.0
        self.trips = 0
        self.probe_in_flight = False
        self.probes_refused = 0
        self._pending_probe: tuple[bool, float] | None = None

    def poll(self, now_s: float) -> list[tuple[BreakerState, BreakerState, str]]:
        """Advance time-driven transitions; returns them for telemetry."""
        transitions: list[tuple[BreakerState, BreakerState, str]] = []
        if (
            self.state is BreakerState.HALF_OPEN
            and self._pending_probe is not None
            and now_s >= self._pending_probe[1]
        ):
            success, resolved_at = self._pending_probe
            self._pending_probe = None
            self.probe_in_flight = False
            if success:
                self.consecutive_failures = 0
                self.state = BreakerState.CLOSED
                transitions.append(
                    (BreakerState.HALF_OPEN, BreakerState.CLOSED,
                     "probe-succeeded")
                )
            else:
                self.consecutive_failures += 1
                self.state = BreakerState.OPEN
                self.opened_at_s = resolved_at
                self.trips += 1
                transitions.append(
                    (BreakerState.HALF_OPEN, BreakerState.OPEN, "probe-failed")
                )
        if (
            self.state is BreakerState.OPEN
            and now_s >= self.opened_at_s + self.cooldown_s
        ):
            self.state = BreakerState.HALF_OPEN
            self.probe_in_flight = False
            self._pending_probe = None
            transitions.append(
                (BreakerState.OPEN, BreakerState.HALF_OPEN, "cooldown-elapsed")
            )
        return transitions

    def try_acquire_probe(self) -> bool:
        """Claim the half-open breaker's single probe slot.

        Returns True for exactly one caller while half-open with no
        probe outstanding; every other caller (wrong state, or a probe
        already in flight) gets False and must take the fallback path.
        The slot is released by the probe's :meth:`record_outcome`.
        """
        if self.state is not BreakerState.HALF_OPEN or self.probe_in_flight:
            if self.state is BreakerState.HALF_OPEN:
                self.probes_refused += 1
            return False
        self.probe_in_flight = True
        return True

    def release_probe(self) -> None:
        """Return an acquired probe slot without recording an outcome.

        For the probe request that never reaches the tiered path after
        all — e.g. rejected by host-memory admission — so the slot is
        not leaked (a leaked slot would pin the breaker half-open and
        refuse every future probe).
        """
        if self.state is BreakerState.HALF_OPEN and self._pending_probe is None:
            self.probe_in_flight = False

    def record_outcome(
        self, success: bool, now_s: float
    ) -> list[tuple[BreakerState, BreakerState, str]]:
        """Record a tiered-path outcome; returns any transitions.

        A half-open probe's outcome is *deferred*: it is stashed here
        with its finish timestamp and applied by the first :meth:`poll`
        at or after that instant, keeping the probe in flight for
        requests that arrive while it is still running.
        """
        if self.state is BreakerState.HALF_OPEN:
            self._pending_probe = (success, now_s)
            return []
        if success:
            self.consecutive_failures = 0
            return []
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at_s = now_s
            self.trips += 1
            return [(BreakerState.CLOSED, BreakerState.OPEN, "failure-threshold")]
        return []


# -- degradation ladder --------------------------------------------------------


class HealthState(enum.IntEnum):
    """Platform health, ordered from calm to shedding."""

    HEALTHY = 0
    PRESSURED = 1
    DEGRADED = 2
    SHEDDING = 3


class DegradationLadder:
    """The platform health state machine.

    Signals: an EWMA of per-request queue delay, the failure fraction
    over the last ``fault_window`` outcomes, and host fast-tier pressure.
    Each signal maps to a target rung; the state climbs toward the
    highest target one step per observation (so every intermediate
    transition is observable in telemetry) and descends one step at a
    time only once the signals drop below ``exit_factor`` times their
    entry thresholds (hysteresis).
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.state = HealthState.HEALTHY
        self.delay_ewma_s = 0.0
        self._outcomes: deque[bool] = deque(maxlen=config.fault_window)
        self.transitions: list[tuple[float, HealthState, HealthState]] = []

    @property
    def enabled(self) -> bool:
        """True when at least one ladder signal has a threshold."""
        cfg = self.config
        return any(
            value is not None
            for value in (
                cfg.pressured_delay_s,
                cfg.degraded_delay_s,
                cfg.shedding_delay_s,
                cfg.degraded_fault_rate,
                cfg.pressured_capacity_fraction,
            )
        )

    @property
    def fault_rate(self) -> float:
        """Failure fraction over the recent outcome window."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    # Effects per rung, consulted by the platform.

    @property
    def force_fallback(self) -> bool:
        """DEGRADED and above: serve everything on the all-DRAM path."""
        return self.state >= HealthState.DEGRADED

    @property
    def shed_batch(self) -> bool:
        """SHEDDING: drop batch-class traffic at admission."""
        return self.state >= HealthState.SHEDDING

    def note_outcome(self, failed: bool) -> None:
        """Feed one served-request outcome into the fault-rate window."""
        self._outcomes.append(bool(failed))

    def update(
        self,
        now_s: float,
        *,
        queue_delay_s: float,
        capacity_pressure: float = 0.0,
    ) -> list[tuple[float, HealthState, HealthState]]:
        """Fold in one request's signals and move at most one rung."""
        if not self.enabled:
            return []
        alpha = self.config.delay_alpha
        self.delay_ewma_s += alpha * (queue_delay_s - self.delay_ewma_s)
        target = self._target_level(capacity_pressure, scale=1.0)
        sustain = self._target_level(capacity_pressure, scale=self.config.exit_factor)
        new = self.state
        if target > self.state:
            new = HealthState(self.state + 1)
        elif sustain < self.state:
            new = HealthState(self.state - 1)
        if new is self.state:
            return []
        old, self.state = self.state, new
        self.transitions.append((now_s, old, new))
        return [(now_s, old, new)]

    def _target_level(self, capacity_pressure: float, *, scale: float) -> int:
        cfg = self.config
        level = int(HealthState.HEALTHY)
        delay = self.delay_ewma_s
        if cfg.pressured_delay_s is not None and delay >= cfg.pressured_delay_s * scale:
            level = int(HealthState.PRESSURED)
        if cfg.degraded_delay_s is not None and delay >= cfg.degraded_delay_s * scale:
            level = int(HealthState.DEGRADED)
        if cfg.shedding_delay_s is not None and delay >= cfg.shedding_delay_s * scale:
            level = int(HealthState.SHEDDING)
        if (
            cfg.degraded_fault_rate is not None
            and self.fault_rate >= cfg.degraded_fault_rate * scale
        ):
            level = max(level, int(HealthState.DEGRADED))
        if (
            cfg.pressured_capacity_fraction is not None
            and capacity_pressure >= cfg.pressured_capacity_fraction * scale
        ):
            level = max(level, int(HealthState.PRESSURED))
        return level


# -- the policy object the platform holds --------------------------------------


@dataclass
class OverloadPolicy:
    """Composes config, per-function breakers and the ladder."""

    config: OverloadConfig = field(default_factory=OverloadConfig)
    ladder: DegradationLadder = field(init=False)
    breakers: dict[str, CircuitBreaker] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.ladder = DegradationLadder(self.config)

    def breaker_for(self, function: str) -> CircuitBreaker | None:
        """The function's breaker, or None when breakers are disabled."""
        if self.config.breaker_failures is None:
            return None
        breaker = self.breakers.get(function)
        if breaker is None:
            breaker = CircuitBreaker(
                self.config.breaker_failures, self.config.breaker_cooldown_s
            )
            self.breakers[function] = breaker
        return breaker

    def deadline_for(self, arrival_s: float, baseline_service_s: float) -> float | None:
        """The request's absolute deadline, or None when SLOs are off."""
        if self.config.slo_factor is None:
            return None
        return arrival_s + self.config.slo_factor * baseline_service_s

    def admission_limit_hit(
        self,
        *,
        queue_depth: int,
        queue_delay_s: float,
        function_depth: int,
    ) -> ShedReason | None:
        """The first admission limit this request exceeds, if any."""
        cfg = self.config
        if cfg.max_queue_depth is not None and queue_depth >= cfg.max_queue_depth:
            return ShedReason.QUEUE_DEPTH
        if (
            cfg.max_queue_delay_s is not None
            and queue_delay_s > cfg.max_queue_delay_s
        ):
            return ShedReason.QUEUE_DELAY
        if (
            cfg.max_function_depth is not None
            and function_depth >= cfg.max_function_depth
        ):
            return ShedReason.FUNCTION_DEPTH
        return None
