"""End-to-end serverless platform simulation.

Ties the pieces together the way a provider would: functions are deployed
onto a platform, requests arrive on a schedule, each request is served by
the function's TOSS controller (walking it through initial execution,
profiling, and tiered serving), cores are a finite resource, and every
request is billed through the pricing model.

Under load the platform is guarded by the overload-resilience layer
(:mod:`repro.platform.overload`): bounded admission with priority
classes, per-request deadlines, per-function circuit breakers, and a
platform-wide degradation ladder.  Host memory admission
(:class:`~repro.platform.capacity.HostCapacity`) is consulted per
request when a capacity budget is attached.  Both are opt-in: a platform
constructed without them — or with the all-permissive
:class:`~repro.platform.overload.OverloadConfig` — serves byte-identically
to the unguarded platform.

This is the integration surface — the per-figure experiments drive the
lower layers directly.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral, Real

from .. import config
from ..core.telemetry import EventKind
from ..core.toss import InvocationOutcome, Phase, TossConfig, TossController
from ..domains import CountDomain, check_value
from ..errors import FaultInjected, SchedulerError
from ..functions.base import FunctionModel
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from ..obs import runtime as obs_runtime
from ..obs.slo import SloTracker
from ..obs.spans import Span, SpanStatus
from ..pricing.billing import TieredBill, bill_invocation
from ..vm.microvm import MicroVM
from .capacity import HostCapacity, ResidentVM
from .keepalive import KeepAliveCache
from .overload import (
    BreakerState,
    CircuitBreaker,
    HealthState,
    OverloadConfig,
    OverloadPolicy,
    RequestClass,
    ShedReason,
)
from .prewarm import PrewarmPolicy
from ..sim.loop import (
    PRIORITY_ARRIVAL,
    PRIORITY_EMIT,
    PRIORITY_RELEASE,
    EventLoop,
)

__all__ = [
    "FunctionDeployment",
    "RequestLogEntry",
    "ServerlessPlatform",
    "observe_slo",
    "parse_requests",
]

_ZERO_BILL = TieredBill(
    dram_cost=0.0, tiered_cost=0.0, slow_fraction=0.0, slowdown=1.0
)


def parse_requests(
    requests: list[tuple], functions: Mapping[str, FunctionModel]
) -> list[tuple[float, str, int, RequestClass]]:
    """Validate and normalise request tuples before any serving starts.

    Accepts ``(arrival_s, function_name, input_index)`` with an optional
    fourth priority-class element (a
    :class:`~repro.platform.overload.RequestClass` or its string value,
    default latency).  The arrival must be a finite non-negative number
    and the input index an integer inside the function's inputs (a bool
    is neither).  A malformed tuple fails the whole batch up front with a
    :class:`~repro.errors.SchedulerError` naming the offending request —
    nothing is partially served.  Both
    :meth:`ServerlessPlatform.serve` and the cluster's ``serve`` parse
    through here; the result keeps the input order.
    """
    normalized: list[tuple[float, str, int, RequestClass]] = []
    for req in requests:
        if len(req) == 3:
            arrival, name, input_index = req
            req_class = RequestClass.LATENCY
        elif len(req) == 4:
            arrival, name, input_index, req_class = req
            if not isinstance(req_class, RequestClass):
                try:
                    req_class = RequestClass(req_class)
                except ValueError:
                    raise SchedulerError(
                        f"request {tuple(req)!r}: unknown request class "
                        f"{req_class!r} (expected 'latency' or 'batch')"
                    ) from None
        else:
            raise SchedulerError(
                f"malformed request tuple {tuple(req)!r}: expected "
                "(arrival_s, function_name, input_index[, class])"
            )
        if not isinstance(name, str) or name not in functions:
            raise SchedulerError(f"function {name!r} not deployed")
        where = f"request {(arrival, name, input_index)!r}"
        if isinstance(arrival, bool) or not isinstance(arrival, Real):
            raise SchedulerError(f"{where}: arrival time must be a number")
        if not math.isfinite(arrival):
            raise SchedulerError(f"{where}: arrival time must be finite")
        if arrival < 0:
            raise SchedulerError(f"{where}: arrival time must be non-negative")
        if isinstance(input_index, bool) or not isinstance(input_index, Integral):
            raise SchedulerError(f"{where}: input_index must be an integer")
        n_inputs = functions[name].n_inputs
        if not 0 <= input_index < n_inputs:
            raise SchedulerError(
                f"{where}: input_index outside 0..{n_inputs - 1}"
            )
        normalized.append((float(arrival), name, int(input_index), req_class))
    return normalized


@dataclass
class FunctionDeployment:
    """One deployed function and its TOSS controller."""

    function: FunctionModel
    controller: TossController
    invocations: int = 0


@dataclass(frozen=True, slots=True)
class RequestLogEntry:
    """The settle record of one request — served, failed or shed.

    Every per-request observation (telemetry, metrics, SLO samples, the
    cluster's outcome) is derived from it."""

    function: str
    input_index: int
    arrival_s: float
    start_s: float
    finish_s: float
    phase: Phase
    setup_time_s: float
    exec_time_s: float
    bill: TieredBill
    retries: int = 0
    """Faulted snapshot reads recovered by retry while serving this request."""
    failures: int = 0
    """Restore failures absorbed (served via fallback) for this request."""
    degraded: bool = False
    """Served in degraded mode (fallback restore or tier backpressure)."""
    failed: bool = False
    """The request could not be served at all (unrecoverable fault)."""
    request_class: str = "latency"
    """Priority class: ``"latency"`` (never shed) or ``"batch"``."""
    deadline_s: float | None = None
    """Absolute deadline, when the overload layer enforces SLOs."""
    shed: bool = False
    """Rejected at admission (bounded queue, capacity, deadline, breaker)."""
    shed_reason: str = ""
    """The :class:`~repro.platform.overload.ShedReason` value, when shed."""
    aborted: bool = False
    """A tiered restore was aborted mid-setup to protect the deadline."""
    shed_wait_s: float = 0.0
    """The wait for a free core the admission decision saw, when shed (a
    shed request never starts, so ``start_s`` cannot carry it)."""

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for a free core (the decision-time wait, when
        shed)."""
        if self.shed:
            return self.shed_wait_s
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """Arrival-to-finish latency."""
        return self.finish_s - self.arrival_s

    @property
    def deadline_met(self) -> bool:
        """Finished by the deadline (vacuously true with no deadline)."""
        if self.deadline_s is None:
            return True
        return not self.shed and not self.failed and self.finish_s <= self.deadline_s


def observe_slo(feed: SloTracker, entry: RequestLogEntry, *, host: str = "") -> None:
    """Feed one settled request's SLO samples, derived from its log entry.

    A served or failed entry feeds the request SLI (good unless failed) at
    its finish, the queue-delay signal at its start, and the fault-rate
    signal at its finish; a served one also feeds its restore setup time.
    Admission sheds are deliberate policy, not SLI errors
    (``availability()`` excludes them): they feed only the queue-delay
    signal, with the decision-time wait, at their arrival.
    """
    if entry.shed:
        feed.observe_signal(
            "queue_delay_s", entry.queue_delay_s, entry.arrival_s, host=host
        )
        return
    feed.observe_request(entry.finish_s, good=not entry.failed, host=host)
    feed.observe_signal(
        "queue_delay_s", entry.queue_delay_s, entry.start_s, host=host
    )
    feed.observe_signal(
        "fault_rate", 1.0 if entry.failed else 0.0, entry.finish_s, host=host
    )
    if not entry.failed:
        feed.observe_signal(
            "restore_setup_s", entry.setup_time_s, entry.finish_s, host=host
        )


@dataclass(slots=True)
class _Ticket:
    """One request on its way through admit → dispatch → settle."""

    arrival: float
    name: str
    input_index: int
    req_class: RequestClass
    dep: FunctionDeployment
    wait_s: float
    """The wait for a free core at the admission decision."""
    obs: obs_runtime.Observation | None
    """Where every span, metric and emission of the request lands."""
    # What _admit decided: a shed reason, or the dispatch plan.
    shed: ShedReason | None = None
    deadline_s: float | None = None
    force_fallback: bool = False
    setup_budget_s: float | None = None
    probe: CircuitBreaker | None = None
    lease: str | None = None
    # What _dispatch did.
    free_at: float = 0.0
    start: float = 0.0
    span: Span | None = None
    tiered: bool = False
    """The attempt took the tiered path (its outcome feeds the breaker)."""
    outcome: InvocationOutcome | None = None
    """``None`` when shed, or when the attempt failed (``error`` is set)."""
    error: str = ""
    setup_hidden: bool = False


class _Timeline:
    """A platform's serve state, kept from one serve call to the next.

    The core heap and the counts that release events unwind: requests
    queued for a core, requests in flight per function, and host-memory
    leases.  Its release and telemetry events run on the platform's
    :attr:`~ServerlessPlatform.loop`.
    """

    def __init__(self, platform: ServerlessPlatform) -> None:
        self._platform = platform
        self.cores = [0.0] * platform.n_cores
        self.queued = 0
        self.inflight: dict[str, int] = {}
        self.leases: dict[object, str] = {}

    def defer_emit(
        self,
        obs: obs_runtime.Observation | None,
        when_s: float,
        kind: EventKind,
        function: str,
        invocation: int,
        at_s: float | None = None,
        **detail,
    ) -> None:
        """Emit telemetry as an event at ``when_s`` (now, if already past).

        Detail values and the observation are captured eagerly — the
        emission observes the state at decision time, only its position
        on the timeline moves.
        """
        if obs is None:
            return
        platform = self._platform
        platform.loop.schedule_at(
            max(float(when_s), platform.loop.now),
            lambda _now: platform._emit_platform_event(
                kind, function, invocation, obs=obs, at_s=at_s, **detail
            ),
            priority=PRIORITY_EMIT,
            category="emit",
        )

    def _release_at(self, when_s: float, callback) -> None:
        self._platform.loop.schedule_at(
            when_s, callback, priority=PRIORITY_RELEASE, category="release"
        )

    def hold_slots(self, name: str, start_s: float, finish_s: float) -> None:
        """Count a granted request as queued until it starts, and against
        its function until it finishes."""
        self.queued += 1
        self.inflight[name] = self.inflight.get(name, 0) + 1
        self._release_at(start_s, self._start)
        self._release_at(finish_s, partial(self._finish, name))

    def _start(self, _now: float) -> None:
        self.queued -= 1

    def _finish(self, name: str, _now: float) -> None:
        self.inflight[name] -= 1

    def hold_lease(self, finish_s: float, lease_name: str) -> None:
        """Hold host memory until the VM's finish event releases it."""
        token = object()
        self.leases[token] = lease_name
        self._release_at(finish_s, partial(self._release_lease, token))

    def _release_lease(self, token: object, _now: float) -> None:
        # A crash has already released the leases it dropped.
        if (lease_name := self.leases.pop(token, None)) is not None:
            self._platform.capacity.release(lease_name)


class ServerlessPlatform:
    """A core-limited platform serving request streams through TOSS."""

    def __init__(
        self,
        *,
        n_cores: int = 20,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        toss_cfg: TossConfig | None = None,
        keepalive: "KeepAliveCache | None" = None,
        prewarm: "PrewarmPolicy | None" = None,
        overload: "OverloadPolicy | OverloadConfig | None" = None,
        capacity: "HostCapacity | None" = None,
    ) -> None:
        check_value(CountDomain(1), n_cores, "n_cores", SchedulerError)
        self.n_cores = int(n_cores)
        self.memory = memory
        self.toss_cfg = toss_cfg if toss_cfg is not None else TossConfig()
        self.keepalive = keepalive
        self.prewarm = prewarm
        if isinstance(overload, OverloadConfig):
            overload = OverloadPolicy(overload)
        self.overload = overload
        self.capacity = capacity
        self.span_prefix = ""
        """Prefix for every span/trace-event name this platform records
        (e.g. ``"host3/"`` when serving as one host of a cluster fleet).
        Empty by default, which keeps single-host traces byte-identical."""
        self.loop = EventLoop()
        """The platform's timeline (a cluster fleet shares one)."""
        self.deployments: dict[str, FunctionDeployment] = {}
        self.log: list[RequestLogEntry] = []
        self._timeline = _Timeline(self)

    # -- deployment ------------------------------------------------------------

    def deploy(self, function: FunctionModel) -> FunctionDeployment:
        """Register a function; idempotent per name."""
        if function.name not in self.deployments:
            self.deployments[function.name] = FunctionDeployment(
                function=function,
                controller=TossController(
                    function,
                    memory=self.memory,
                    cfg=self.toss_cfg,
                ),
            )
        return self.deployments[function.name]

    # -- serving ----------------------------------------------------------------

    def serve(
        self,
        requests: list[tuple],
    ) -> list[RequestLogEntry]:
        """Serve ``(arrival_s, function_name, input_index[, class])`` requests.

        Requests queue for cores FIFO per arrival order, ties broken by
        ``(function_name, input_index)`` so equal-arrival batches replay
        identically regardless of the input list's order; each request is
        served to completion on one core (vCPU pinning, no preemption).
        Injected faults that even the controller's fallback chain cannot
        absorb fail only the one request (logged with ``failed=True``) —
        the platform itself keeps serving.

        With an overload policy attached, every request first passes
        admission (bounded queue depth/delay, degradation-ladder state,
        deadline feasibility, circuit breaker, host capacity); rejected
        requests are *logged* with ``shed=True`` — never silently queued
        forever — and batch-class traffic is shed before latency-class
        traffic is ever degraded.  Returns the log entries appended for
        this batch.

        Each arrival runs :meth:`serve_one`: :meth:`_admit` decides
        between a shed and a dispatch plan, :meth:`_dispatch` runs an
        admitted request on a core, and :meth:`_settle` derives every
        observation of the request from its log entry.

        Arrivals, queue-slot and capacity-lease expiries, and telemetry
        emissions are all events on one deterministic
        ``(time, priority, seq)`` timeline (:mod:`repro.sim`).
        Bookkeeping events carry :data:`~repro.sim.loop.PRIORITY_RELEASE`,
        so state that ended *by* an arrival's instant is gone before its
        admission decision.  Telemetry emissions carry
        :data:`~repro.sim.loop.PRIORITY_EMIT` and fire at their simulated
        timestamps (a breaker transition observed at a request's *finish*
        is emitted at that finish), so shed/breaker/health events land in
        the log in nondecreasing simulated-time order.

        The serve state outlives the call: busy cores, counts, leases and
        their release events carry into the next one, so a stream served
        in two calls gets the same log entries as in one.  A call must
        therefore not go back in time: an arrival before the last one an
        earlier call decided raises :class:`~repro.errors.SchedulerError`.
        """
        normalized = parse_requests(
            requests, {n: d.function for n, d in self.deployments.items()}
        )
        normalized.sort(key=lambda r: (r[0], r[1], r[2], r[3].value))
        if normalized and self.log and normalized[0][0] < self.log[-1].arrival_s:
            raise SchedulerError(
                f"request {normalized[0][:3]!r} arrives before "
                f"t={self.log[-1].arrival_s!r}s, the last arrival decided"
            )
        first = len(self.log)
        # One shared callback drains the (sorted) request list instead of
        # one closure per request: arrival events fire in (time, seq)
        # order, and seq order is insertion order, so the pop sequence
        # matches the firing sequence exactly.
        arrivals = deque(normalized)

        def next_arrival(_now: float) -> None:
            self.serve_one(*arrivals.popleft())

        entries = self.loop.schedule_batch(
            [r[0] for r in normalized],
            next_arrival,
            priority=PRIORITY_ARRIVAL,
            category="arrival",
        )
        # Stop once the last arrival has been decided: release events
        # past it stay queued for the next call; telemetry stamped past
        # it is flushed without moving the clock.
        try:
            self.loop.run_while_category("arrival")
        except BaseException:
            # An aborted batch leaves no arrival for the next call.
            for entry in entries[len(entries) - len(arrivals):]:
                self.loop.cancel(entry)
            raise
        self.loop.drain_category("emit")
        return self.log[first:]

    def serve_one(
        self,
        arrival: float,
        name: str,
        input_index: int,
        req_class: RequestClass,
    ) -> RequestLogEntry:
        """Admit, dispatch, record and settle one parsed request at its
        arrival, with :attr:`loop` standing there; returns its entry."""
        ticket = self._admit(arrival, name, input_index, req_class)
        if ticket.shed is None:
            self._dispatch(ticket)
        entry = self._record(ticket)
        self._settle(entry, ticket)
        return entry

    def reset_serve_state(self) -> None:
        """Lose the serve state a host crash loses: every core goes idle,
        nothing is queued or in flight, and every capacity lease is
        released.  Events the lost state queued fire on it alone."""
        for lease_name in self._timeline.leases.values():
            self.capacity.release(lease_name)
        self._timeline.leases.clear()
        self._timeline = _Timeline(self)

    # -- the stages ------------------------------------------------------------

    def _admit(
        self,
        arrival: float,
        name: str,
        input_index: int,
        req_class: RequestClass,
    ) -> _Ticket:
        """Admission: ladder, limits, deadline, breaker, host capacity.

        Returns the request's ticket, carrying either a shed reason or the
        dispatch plan (forced fallback, setup budget, deadline, half-open
        probe, capacity lease)."""
        dep = self.deployments[name]
        t = _Ticket(
            arrival, name, input_index, req_class, dep,
            wait_s=max(0.0, self._timeline.cores[0] - arrival),
            obs=obs_runtime.active(),
        )
        ov = self.overload
        if ov is not None:
            self._admit_overload(t, ov)
            if t.shed is not None:
                return t
        if self.capacity is not None:
            vm = self._resident_footprint(dep, len(self.log))
            if not self.capacity.admit(vm):
                # Host memory admission: a full host rejects the VM — a
                # shed decision, not an error.  A half-open probe that
                # never ran returns its slot.
                if t.probe is not None:
                    t.probe.release_probe()
                t.shed = ShedReason.CAPACITY
                return t
            t.lease = vm.name
        return t

    def _admit_overload(self, t: _Ticket, ov: OverloadPolicy) -> None:
        """The overload policy's part of :meth:`_admit`."""
        arrival, name, dep = t.arrival, t.name, t.dep
        tl = self._timeline
        is_batch = t.req_class is RequestClass.BATCH
        pressure = self.capacity.fast_pressure if self.capacity is not None else 0.0
        for at_s, old, new in ov.ladder.update(
            arrival, queue_delay_s=t.wait_s, capacity_pressure=pressure
        ):
            tl.defer_emit(
                t.obs,
                at_s,
                EventKind.HEALTH_TRANSITION,
                "platform",
                len(self.log),
                at_s=round(at_s, 6),
                from_state=old.name,
                to_state=new.name,
                queue_delay_ewma_s=round(ov.ladder.delay_ewma_s, 6),
                fault_rate=round(ov.ladder.fault_rate, 4),
            )
        self._apply_ladder_effects(ov)
        limit = ov.admission_limit_hit(
            queue_depth=tl.queued,
            queue_delay_s=t.wait_s,
            function_depth=tl.inflight.get(name, 0),
        )
        if limit is not None:
            if is_batch:
                t.shed = limit
            else:
                # Latency traffic is never shed by an admission limit: it
                # is forced onto the cheap all-DRAM fallback path so the
                # queue drains instead of growing.
                t.force_fallback = True
        if t.shed is None and ov.ladder.shed_batch and is_batch:
            t.shed = ShedReason.SHEDDING
        t.deadline_s = ov.deadline_for(
            arrival,
            config.VM_STATE_LOAD_S + self._baseline_s(dep, t.input_index),
        )
        if t.shed is None and t.deadline_s is not None:
            earliest_finish = (
                max(arrival, tl.cores[0])
                + config.VM_STATE_LOAD_S
                + self._baseline_s(dep, t.input_index)
            )
            if earliest_finish > t.deadline_s:
                # Hopeless before it starts: the queue alone blows the
                # deadline.  Batch is shed; latency is served on the
                # cheapest path we have.
                if is_batch:
                    t.shed = ShedReason.DEADLINE
                else:
                    t.force_fallback = True
        if t.shed is None:
            self._admit_breaker(t, ov)
        if ov.ladder.force_fallback:
            t.force_fallback = True
        if t.shed is None and t.deadline_s is not None and not t.force_fallback:
            t.setup_budget_s = max(
                0.0,
                t.deadline_s
                - max(arrival, tl.cores[0])
                - self._baseline_s(dep, t.input_index),
            )

    def _admit_breaker(self, t: _Ticket, ov: OverloadPolicy) -> None:
        """Poll the function's circuit breaker and apply its state."""
        breaker = ov.breaker_for(t.name)
        if breaker is None:
            return
        for old, new, why in breaker.poll(t.arrival):
            self._emit_breaker_transition(t, old, new, why, t.arrival)
        if breaker.state is BreakerState.OPEN:
            blocked = True
        elif breaker.state is BreakerState.HALF_OPEN:
            # Half-open admits exactly one in-flight probe onto the
            # recovering tiered path; concurrent requests take the same
            # fallback/shed exits as while open instead of stampeding it.
            would_probe = (
                not t.force_fallback
                and not ov.ladder.force_fallback
                and t.dep.controller.phase is Phase.TIERED
            )
            if would_probe and breaker.try_acquire_probe():
                t.probe = breaker
            blocked = would_probe and t.probe is None
        else:
            return
        if blocked:
            if ov.config.breaker_fail_fast and t.req_class is RequestClass.BATCH:
                t.shed = ShedReason.BREAKER_OPEN
            else:
                t.force_fallback = True

    def _dispatch(self, t: _Ticket) -> None:
        """Run an admitted request on the next free core.

        Opens the request span, advances the fault plane to the start and
        invokes the controller; pre-warming may hide the restore.  An
        injected fault the recovery chain could not absorb leaves
        ``t.error`` set and returns the core at its true free time."""
        cores = self._timeline.cores
        t.free_at = heapq.heappop(cores)
        t.start = start = max(t.arrival, t.free_at)
        obs = t.obs
        if obs is not None:
            # Request starts are nondecreasing (the core heap's minima
            # are), so re-anchoring the cursor at each start keeps the
            # controller's child spans on the request's timeline.
            obs.tracer.seek(start)
            t.span = obs.tracer.start_span(
                f"{self.span_prefix}request/{t.name}",
                start_s=t.arrival,
                attrs={
                    "function": t.name,
                    "input_index": t.input_index,
                    "class": t.req_class.value,
                },
            )
            if start > t.arrival:
                obs.tracer.event(
                    "queue-wait", at_s=start, attrs={"wait_s": start - t.arrival}
                )
            obs.metrics.histogram(
                "toss_queue_delay_seconds",
                "Seconds requests waited for a free core",
            ).observe(start - t.arrival)
        if (injector := self.memory.fault_hook) is not None:
            # Time-windowed faults (outages, backpressure) key off the
            # moment the restore actually begins.
            injector.advance_to(start)
        dep = t.dep
        t.tiered = not t.force_fallback and dep.controller.phase is Phase.TIERED
        try:
            if t.force_fallback or t.setup_budget_s is not None:
                outcome = self._invoke(
                    dep,
                    t.input_index,
                    setup_budget_s=t.setup_budget_s,
                    force_fallback=t.force_fallback,
                )
            else:
                outcome = self._invoke(dep, t.input_index)
        except FaultInjected as exc:
            # The failed attempt consumed no simulated time.
            heapq.heappush(cores, t.free_at)
            t.error = type(exc).__name__
            return
        dep.invocations += 1
        # Predictive pre-warming hides the restore of a correctly
        # anticipated tiered invocation (Section VI-A: "TOSS can load the
        # VM before the predicted function execution").
        if self.prewarm is not None:
            # Only tiered restores can be pre-launched.
            hidden = outcome.phase is Phase.TIERED and self.prewarm.would_hide_setup(
                t.name, t.arrival, outcome.setup_time_s
            )
            self.prewarm.observe(t.name, t.arrival)
            if hidden:
                t.setup_hidden = True
                outcome = replace(outcome, setup_time_s=0.0)
        t.outcome = outcome
        heapq.heappush(cores, start + outcome.total_time_s)

    def _record(self, t: _Ticket) -> RequestLogEntry:
        """The request's settle record — the one place a log entry is
        built, for shed, failed and served requests alike."""
        dep, outcome = t.dep, t.outcome
        if outcome is None:
            # Shed at admission, or failed on dispatch: neither consumed
            # simulated time, and the entry records how long a failed
            # request actually waited for its core.
            start = t.arrival if t.shed is not None else t.start
            result = dict(
                start_s=start,
                finish_s=start,
                phase=dep.controller.phase,
                setup_time_s=0.0,
                exec_time_s=0.0,
                bill=_ZERO_BILL,
                failures=int(t.shed is None),
                failed=t.shed is None,
            )
        else:
            result = dict(
                start_s=t.start,
                finish_s=t.start + outcome.total_time_s,
                phase=outcome.phase,
                setup_time_s=outcome.setup_time_s,
                exec_time_s=outcome.exec_time_s,
                bill=bill_invocation(
                    guest_mb=dep.function.guest_mb,
                    duration_s=outcome.total_time_s,
                    slow_fraction=outcome.slow_fraction,
                    # Fallback-served requests ran all-DRAM (slow_fraction
                    # 0): they are billed as DRAM invocations with no
                    # slowdown.
                    slowdown=(
                        dep.controller.analysis.expected_slowdown
                        if outcome.phase is Phase.TIERED
                        and outcome.slow_fraction > 0
                        and dep.controller.analysis
                        else 1.0
                    ),
                    memory=self.memory,
                ),
                retries=outcome.retries,
                failures=outcome.failures,
                degraded=outcome.degraded,
                aborted=outcome.aborted,
            )
        return RequestLogEntry(
            function=t.name,
            input_index=t.input_index,
            arrival_s=t.arrival,
            request_class=t.req_class.value,
            deadline_s=t.deadline_s,
            shed=t.shed is not None,
            shed_reason=t.shed.value if t.shed is not None else "",
            shed_wait_s=t.wait_s if t.shed is not None else 0.0,
            **result,
        )

    def _settle(self, entry: RequestLogEntry, t: _Ticket) -> None:
        """Settle one request from its log entry.

        The one place an entry is appended and its request span ended (or,
        for a shed, recorded).  Telemetry, metrics and SLO samples are
        derived from the entry here; so are the ladder and breaker
        outcomes and the queue, in-flight and lease release events."""
        self.log.append(entry)
        tl, obs = self._timeline, t.obs
        name, invocation = entry.function, t.dep.invocations
        if entry.shed:
            # Stamped — and emitted — at the arrival that decided it.
            tl.defer_emit(
                obs,
                entry.arrival_s,
                EventKind.REQUEST_SHED,
                name,
                invocation,
                reason=entry.shed_reason,
                request_class=entry.request_class,
                queue_delay_s=round(entry.queue_delay_s, 6),
                at_s=round(entry.arrival_s, 6),
            )
            if obs is not None:
                obs.tracer.record(
                    f"{self.span_prefix}request/{name}",
                    0.0,
                    start_s=entry.arrival_s,
                    attrs={
                        "function": name,
                        "input_index": entry.input_index,
                        "class": entry.request_class,
                        "shed_reason": entry.shed_reason,
                    },
                    status=SpanStatus.ABORTED,
                )
                obs.metrics.counter(
                    "toss_requests_shed_total",
                    "Requests rejected at admission, by shed reason",
                ).inc(reason=entry.shed_reason)
                obs.metrics.histogram(
                    "toss_queue_delay_seconds",
                    "Seconds requests waited for a free core",
                ).observe(entry.queue_delay_s)
        elif entry.failed:
            if t.span is not None:
                t.span.attrs["error"] = t.error
                obs.tracer.end_span(
                    t.span, end_s=entry.start_s, status=SpanStatus.ERROR
                )
            if t.lease is not None:
                self.capacity.release(t.lease)
            if obs is not None:
                self._emit_platform_event(
                    EventKind.FALLBACK_RESTORE,
                    name,
                    invocation,
                    obs=obs,
                    error=t.error,
                    unserved=True,
                    free_at_s=round(t.free_at, 6),
                    queue_delay_s=round(entry.queue_delay_s, 6),
                )
        else:
            if self.overload is not None or self.capacity is not None:
                tl.hold_slots(name, entry.start_s, entry.finish_s)
            if t.lease is not None:
                tl.hold_lease(entry.finish_s, t.lease)
            if t.span is not None:
                t.span.attrs["phase"] = entry.phase.value
                t.span.attrs["setup_s"] = entry.setup_time_s
                t.span.attrs["exec_s"] = entry.exec_time_s
                t.span.attrs["degraded"] = entry.degraded
                if t.setup_hidden:
                    # Prewarm hid the restore: the controller's child spans
                    # still show the setup work, so they overrun the
                    # request's billed window by design.
                    t.span.attrs["setup_hidden"] = True
                obs.tracer.end_span(t.span, end_s=entry.finish_s)
        if obs is not None and obs.slo is not None:
            observe_slo(obs.slo, entry)
        ov = self.overload
        if ov is not None and not entry.shed:
            fault = entry.failed or entry.failures > 0 or entry.aborted
            ov.ladder.note_outcome(fault)
            breaker = ov.breaker_for(name) if t.tiered else None
            if breaker is not None:
                for old, new, why in breaker.record_outcome(
                    not fault, entry.finish_s
                ):
                    self._emit_breaker_transition(
                        t, old, new, why, entry.finish_s
                    )

    # -- overload helpers --------------------------------------------------------

    def _baseline_s(self, dep: FunctionDeployment, input_index: int) -> float:
        """The input's warm all-DRAM execution time (deadline basis)."""
        return dep.function.input_spec(input_index).t_dram_s

    def _resident_footprint(self, dep: FunctionDeployment, seq: int) -> ResidentVM:
        """Memory this request's VM pins on the host, by current phase."""
        guest = float(dep.function.guest_mb)
        ctl = dep.controller
        sf = ctl.slow_fraction if ctl.phase is Phase.TIERED else 0.0
        fast = max(guest * (1.0 - sf), 1e-3)
        return ResidentVM(f"{dep.function.name}@{seq}", fast, guest * sf)

    def _apply_ladder_effects(self, ov: OverloadPolicy) -> None:
        """Enforce the current health state on prewarm and keep-alive."""
        state = ov.ladder.state
        if self.prewarm is not None:
            self.prewarm.enabled = state < HealthState.PRESSURED
        if self.keepalive is not None:
            if state >= HealthState.DEGRADED:
                self.keepalive.shrink_to(0.0)
            elif state is HealthState.PRESSURED:
                self.keepalive.shrink_to(
                    self.keepalive.capacity_mb
                    * ov.config.keepalive_pressure_fraction
                )

    def _emit_breaker_transition(
        self,
        t: _Ticket,
        old: BreakerState,
        new: BreakerState,
        why: str,
        at_s: float,
    ) -> None:
        """Defer a breaker-transition emission to its simulated timestamp.

        The breaker *state* changes eagerly (the next admission decision
        must see it); only the telemetry record rides the timeline, so a
        transition observed at a finish appears in the trace at that finish.
        """
        self._timeline.defer_emit(
            t.obs,
            at_s,
            EventKind.BREAKER_TRANSITION,
            t.name,
            t.dep.invocations,
            from_state=old.value,
            to_state=new.value,
            reason=why,
            at_s=round(at_s, 6),
        )

    def _emit_platform_event(
        self,
        kind: EventKind,
        function: str,
        invocation: int,
        *,
        obs: obs_runtime.Observation,
        at_s: float | None = None,
        **detail,
    ) -> None:
        # Deferred emissions fire between requests (empty span stack),
        # so these land as trace-level instants in the export.
        attrs = {"function": function, "invocation": invocation, **detail}
        if at_s is not None:
            attrs["at_s"] = at_s
        obs.tracer.event(f"{self.span_prefix}telemetry/{kind.value}", attrs=attrs)

    # -- keep-alive integration ----------------------------------------------------

    def _invoke(
        self,
        dep: FunctionDeployment,
        input_index: int,
        *,
        setup_budget_s: float | None = None,
        force_fallback: bool = False,
    ):
        """Serve one invocation, warm-starting from the keep-alive cache
        when possible (Section VI-A: "TOSS can keep the VM alive on both
        tiers until evicted").

        ``force_fallback`` short-circuits straight to the controller's
        all-DRAM lazy path (open breaker / DEGRADED platform);
        ``setup_budget_s`` bounds the tiered restore's setup time for
        deadline enforcement."""
        ctl = dep.controller
        if force_fallback:
            return ctl.invoke_fallback(input_index)
        if (
            self.keepalive is not None
            and ctl.phase is Phase.TIERED
            and self.keepalive.lookup(dep.function.name)
        ):
            # Warm tiered start: the VM is resident on both tiers, so no
            # restore happens — execution still pays slow-tier latency.
            snapshot = ctl.tiered_snapshot
            if snapshot is None:
                # A stale keep-alive entry outlived its tiered snapshot
                # (e.g. dropped after a degradation); the cache must not
                # keep advertising a VM that cannot exist.
                self.keepalive.invalidate(dep.function.name)
                raise SchedulerError(
                    f"keep-alive cache holds {dep.function.name!r} but the "
                    "controller has no tiered snapshot; stale entry evicted"
                )
            vm = MicroVM(
                dep.function.n_pages,
                memory=self.memory,
                placement=snapshot.placement(),
                page_versions=snapshot.base.page_versions,
            )
            trace = dep.function.trace(
                input_index, dep.invocations, root_seed=ctl.cfg.root_seed
            )
            result = vm.execute(trace)
            ctl.reprofile.observe(result.time_s)
            outcome = InvocationOutcome(
                phase=Phase.TIERED,
                input_index=input_index,
                seed=dep.invocations,
                setup_time_s=0.0,
                exec_time_s=result.time_s,
                slow_fraction=snapshot.slow_fraction,
            )
        else:
            outcome = ctl.invoke(input_index, setup_budget_s=setup_budget_s)
        if (
            self.keepalive is not None
            and ctl.phase is Phase.TIERED
            and ctl.tiered_snapshot is not None
        ):
            snapshot = ctl.tiered_snapshot
            self.keepalive.admit(
                dep.function.name,
                fast_mb=max(
                    1e-3, dep.function.guest_mb * (1.0 - snapshot.slow_fraction)
                ),
                init_cost_s=max(outcome.setup_time_s, config.VM_STATE_LOAD_S),
            )
        return outcome

    # -- reporting ---------------------------------------------------------------

    def total_billed(self) -> float:
        """Total tiered bill across the log."""
        return sum(e.bill.tiered_cost for e in self.log)

    def total_dram_billed(self) -> float:
        """What the same log would have cost on DRAM-only plans."""
        return sum(e.bill.dram_cost for e in self.log)

    def savings_fraction(self) -> float:
        """Fraction of the DRAM-only bill saved by tiering."""
        dram = self.total_dram_billed()
        if dram == 0:
            return 0.0
        return 1.0 - self.total_billed() / dram

    # -- reliability metrics ----------------------------------------------------

    def availability(self) -> float:
        """Fraction of admitted requests actually served (1.0 with no log).

        A request counts as served even when it needed retries or a
        fallback restore — only ``failed`` entries (faults the whole
        recovery chain could not absorb) reduce availability.  Shed
        requests are deliberate admission decisions, marked ``shed`` on
        their entries, and do not count against availability.
        """
        admitted = [e for e in self.log if not e.shed]
        if not admitted:
            return 1.0
        served = sum(1 for e in admitted if not e.failed)
        return served / len(admitted)

    def batch_shed_fraction(self) -> float:
        """Share of batch-class requests that were shed (0 with none)."""
        batch = [e for e in self.log if e.request_class == RequestClass.BATCH.value]
        if not batch:
            return 0.0
        return sum(1 for e in batch if e.shed) / len(batch)

    @property
    def health_state(self) -> "HealthState | None":
        """Current degradation-ladder state (None without a policy)."""
        if self.overload is None:
            return None
        return self.overload.ladder.state

    def total_retries(self) -> int:
        """Faulted reads recovered by retry across the log."""
        return sum(e.retries for e in self.log)
