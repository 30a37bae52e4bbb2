"""The cluster fleet platform: N hosts, one deterministic timeline.

:class:`ClusterPlatform` runs ``n_hosts`` independent single-host
platforms (each with its own deterministic event kernel, core pool and
derived fault-injection substream) behind one router:

* **Placement** — functions are spread over hosts with the
  :mod:`repro.binpack` heuristics; each function's snapshots live on
  ``replication_factor`` hosts (:mod:`repro.cluster.placement`).
* **Routing** — every request is dispatched to the first live holder of
  its function's snapshots (primary first, so profiling converges in one
  place; replicas adopt the prepared state when it does).
* **Host faults** — crash and partition windows from the plan's
  :class:`~repro.faults.plan.HostFaultSpec` entries.  A crash kills
  requests whose service overlaps the window, evicts the host's
  keep-alive/pre-warm state, and makes it unroutable until recovery; a
  partition only makes it unroutable/unreachable.
* **Re-dispatch** — killed or unroutable requests retry on surviving
  holders with capped exponential backoff, at most
  ``max_redispatch_attempts`` times; an exhausted request is shed with a
  typed :class:`~repro.errors.ClusterError` outcome.  No request is ever
  silently lost.
* **Re-placement** — a crashed host's functions gain a replacement
  holder, effective after ``re_replication_delay_s``; the copy comes
  from a reachable prepared replica when one exists, else the function
  rebuilds cold.
* **Fleet health** — a :class:`~repro.cluster.health.FleetLadder`
  aggregates hosts-down fraction and per-host ladder states; a degraded
  fleet throttles pre-warming everywhere, a shedding fleet rejects batch
  traffic at admission.

Serving runs on *one fleet timeline*: each dispatch is an event on the
cluster's :class:`~repro.sim.loop.EventLoop` that hands one request to a
host's :meth:`~repro.platform.server.ServerlessPlatform.serve_one`, and
every host keeps its serve state and schedules its own events on that
loop.  Fleet maintenance runs as events at fault edges, re-placement
landing times and scrub ticks.  A one-host zero-fault cluster therefore
replays the single-host event order and is byte-identical to it — the
golden regression the test suite pins.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any

from .. import rng as rng_mod
from ..core.toss import Phase, TossConfig
from ..durability import DurabilityManager, ScrubConfig
from ..errors import ClusterError, ConfigError, SchedulerError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..functions.base import FunctionModel
from ..obs import runtime as obs_runtime
from ..platform.keepalive import KeepAliveCache
from ..platform.overload import (
    HealthState,
    OverloadConfig,
    OverloadPolicy,
    RequestClass,
)
from ..platform.prewarm import PrewarmPolicy
from ..platform.server import (
    RequestLogEntry,
    ServerlessPlatform,
    observe_slo,
    parse_requests,
)
from ..sim.loop import PRIORITY_ARRIVAL, PRIORITY_RELEASE, EventLoop
from .config import ClusterConfig
from .health import FleetLadder
from .host import Host
from .placement import Replacement, SnapshotPlacement

__all__ = ["ClusterRequestOutcome", "ClusterPlatform"]


@dataclass(frozen=True)
class ClusterRequestOutcome:
    """The cluster-level fate of one submitted request."""

    function: str
    input_index: int
    arrival_s: float
    """Original submission time (re-dispatch never rewrites it)."""
    request_class: str
    host: int
    """Host that produced the final outcome (-1: never dispatched)."""
    attempts: int
    """Dispatches to a host (0 when no live holder ever existed)."""
    redispatches: int = 0
    """Re-dispatch budget consumed (kills + unroutable retries)."""
    kills: int = 0
    """Times the request was killed in flight by a host crash."""
    backoff_s: float = 0.0
    """Total re-dispatch backoff the request waited through."""
    entry: RequestLogEntry | None = None
    """The host log entry that settled it (None: shed by the cluster)."""
    shed_reason: str = ""
    """Cluster shed reason (``fleet-shedding``, ``no-live-replica``,
    ``redispatch-exhausted``) — empty when a host settled it."""
    error: str = ""
    """The typed :class:`~repro.errors.ClusterError` message, when shed
    by the cluster."""

    @property
    def cluster_shed(self) -> bool:
        """Shed by the cluster itself (never settled by a host)."""
        return self.entry is None

    @property
    def host_shed(self) -> bool:
        """Shed by the serving host's admission policy."""
        return self.entry is not None and self.entry.shed

    @property
    def failed(self) -> bool:
        """Failed on the serving host (unrecoverable injected fault)."""
        return self.entry is not None and self.entry.failed

    @property
    def served(self) -> bool:
        """Actually executed to completion somewhere."""
        return self.entry is not None and not self.entry.shed and not self.entry.failed

    @property
    def finish_s(self) -> float:
        """Completion time (the submission time for unserved requests)."""
        if self.entry is None:
            return self.arrival_s
        return self.entry.finish_s

    @property
    def latency_s(self) -> float:
        """Submission-to-finish latency, re-dispatch delays included."""
        return self.finish_s - self.arrival_s


@dataclass
class _Pending:
    """One request awaiting (re-)dispatch."""

    arrival_s: float
    function: str
    input_index: int
    req_class: RequestClass
    dispatch_s: float
    attempts: int = 0
    redispatches: int = 0
    kills: int = 0
    backoff_s: float = 0.0


@dataclass
class _PendingReplacement:
    """A scheduled re-placement copy not yet effective/applied."""

    effective_s: float
    function: str
    host: int
    applied: bool = field(default=False)
    force: bool = field(default=False)
    """Adopt even onto a controller that has served before — used by the
    durability plane to re-seed a host whose local files were evicted
    after unrepairable corruption (no local state left to clobber)."""


class ClusterPlatform:
    """A fault-tolerant fleet of single-host platforms."""

    def __init__(
        self,
        config: ClusterConfig = ClusterConfig(),
        *,
        toss_cfg: TossConfig | None = None,
        plan: FaultPlan | None = None,
        keepalive_mb: float | None = None,
        prewarm: bool = False,
        overload: OverloadConfig | None = None,
        scrub: ScrubConfig | None = None,
    ) -> None:
        for spec in plan.hosts if plan is not None else ():
            if spec.host >= config.n_hosts:
                raise ConfigError(
                    f"host fault spec targets host {spec.host}, outside the "
                    f"fleet's n_hosts={config.n_hosts}"
                )
        self.config = config
        self.plan = plan
        self.placement = SnapshotPlacement(
            config.n_hosts, config.replication_factor
        )
        self.fleet_ladder = FleetLadder(config)
        self.functions: dict[str, FunctionModel] = {}
        self.outcomes: list[ClusterRequestOutcome] = []
        self.total_redispatches = 0
        self.total_failovers = 0
        self._pending_replacements: list[_PendingReplacement] = []
        self.replacements_applied: list[Replacement] = []
        self._repaired_crashes: set[tuple[int, float, float]] = set()
        self.loop = EventLoop()
        """The fleet timeline: every dispatch, maintenance step and host
        release or telemetry event runs on it."""
        self._maintained_s = -math.inf

        non_host_faults = plan is not None and not replace(
            plan, hosts=()
        ).is_zero
        self.hosts: list[Host] = []
        for hid in range(config.n_hosts):
            injector = None
            if non_host_faults:
                # Every host draws from its own substream of the plan's
                # seed, so adding hosts never perturbs another host's
                # fault decisions.
                injector = FaultInjector(
                    replace(
                        plan,
                        hosts=(),
                        seed=rng_mod.derive_seed(plan.seed, "host", hid),
                    )
                )
            platform = ServerlessPlatform(
                n_cores=config.cores_per_host,
                toss_cfg=toss_cfg,
                keepalive=(
                    KeepAliveCache(keepalive_mb)
                    if keepalive_mb is not None
                    else None
                ),
                prewarm=PrewarmPolicy() if prewarm else None,
                faults=injector,
                overload=OverloadPolicy(overload) if overload is not None else None,
            )
            if config.n_hosts > 1:
                # Single-host clusters keep the empty prefix so their
                # traces stay byte-identical to the bare platform.
                platform.span_prefix = f"host{hid}/"
            platform.loop = self.loop
            spec = plan.host_spec(hid) if plan is not None else None
            self.hosts.append(Host(hid, platform, spec))

        # The durability plane exists only when there is something for it
        # to do (a nonzero bit-rot domain, or an explicit scrub config):
        # zero-fault runs take exactly the pre-durability code path.
        bitrot_active = plan is not None and not plan.bitrot.is_zero
        self.durability: DurabilityManager | None = (
            DurabilityManager(self, scrub)
            if bitrot_active or scrub is not None
            else None
        )
        # Maintenance runs at every host fault-window edge, re-placement
        # landing time and scrub tick, before any dispatch at that instant.
        edges: set[float] = set()
        for spec in plan.hosts if plan is not None else ():
            for start, end in spec.crash_windows:
                edges |= {start, end, start + config.re_replication_delay_s}
            for window in spec.partition_windows:
                edges |= set(window)
        for t_s in sorted(edges):
            self.loop.schedule_at(t_s, self._maintain, priority=PRIORITY_RELEASE)
        if self.durability is not None:
            self.loop.schedule_at(
                self.durability.next_scrub_s, self._scrub_tick,
                priority=PRIORITY_RELEASE,
            )

    # -- deployment -----------------------------------------------------------

    def deploy(self, function: FunctionModel) -> list[int]:
        """Place and deploy one function; returns its holder hosts."""
        if function.name in self.functions:
            return self.placement.base_holders(function.name)
        self.functions[function.name] = function
        holders = self.placement.place(function.name, float(function.guest_mb))
        for hid in holders:
            self.hosts[hid].platform.deploy(function)
        return holders

    def deploy_fleet(self, functions: list[FunctionModel]) -> None:
        """Place a whole suite at once (LPT-balanced bin packing)."""
        fresh = [f for f in functions if f.name not in self.functions]
        self.placement.place_suite(fresh)
        for function in fresh:
            self.functions[function.name] = function
            for hid in self.placement.base_holders(function.name):
                self.hosts[hid].platform.deploy(function)

    # -- fault-domain helpers -------------------------------------------------

    def _frac_down(self, t_s: float) -> float:
        down = sum(
            1 for host in self.hosts if not host.routable_at(t_s)
        )
        return down / len(self.hosts)

    def _host_states(self, t_s: float) -> list[HealthState]:
        states = []
        for host in self.hosts:
            if not host.routable_at(t_s):
                continue
            state = host.platform.health_state
            states.append(state if state is not None else HealthState.HEALTHY)
        return states

    def _observe_fleet(self, t_s: float) -> None:
        before = self.fleet_ladder.state
        after = self.fleet_ladder.observe(
            t_s,
            frac_down=self._frac_down(t_s),
            host_states=self._host_states(t_s),
        )
        if after is not before:
            obs = obs_runtime.active()
            if obs is not None:
                obs.metrics.counter(
                    "toss_cluster_health_transitions_total",
                    "Fleet degradation-ladder transitions",
                ).inc(from_state=before.name, to_state=after.name)

    # -- maintenance ----------------------------------------------------------

    def _maintain(self, t_s: float) -> None:
        """Fleet maintenance at one boundary instant (once per instant).

        Replicas first sync from the holders' state just before it, so a
        crash *at* the boundary cannot undo a copy that already landed;
        then started crashes evict their hosts and schedule re-placement,
        the durability plane ages and scrubs, landed copies apply, and
        replicas sync again."""
        if t_s == self._maintained_s:
            return
        self._maintained_s = t_s
        self._sync_replicas(math.nextafter(t_s, -math.inf))
        self._schedule_repairs(t_s)
        if self.durability is not None:
            self.durability.advance_to(t_s)
        self._apply_repairs(t_s)
        self._sync_replicas(t_s)

    def _scrub_tick(self, t_s: float) -> None:
        self._maintain(t_s)
        self.loop.schedule_at(
            self.durability.next_scrub_s, self._scrub_tick,
            priority=PRIORITY_RELEASE,
        )

    # -- re-placement ---------------------------------------------------------

    def _schedule_repairs(self, now_s: float) -> None:
        """Schedule re-placement for crashes that started by ``now_s``."""
        for host in self.hosts:
            if host.spec is None:
                continue
            for window in host.spec.crash_windows:
                key = (host.hid, window[0], window[1])
                if window[0] > now_s or key in self._repaired_crashes:
                    continue
                self._repaired_crashes.add(key)
                host.crash()
                effective = window[0] + self.config.re_replication_delay_s
                for name in self.placement.functions:
                    holders = self.placement.holders_at(name, window[0])
                    if host.hid not in holders:
                        continue
                    target = self.placement.lightest_host_excluding(
                        set(holders)
                    )
                    if target is None:
                        continue
                    self.placement.note_weight(
                        target, float(self.functions[name].guest_mb)
                    )
                    self._pending_replacements.append(
                        _PendingReplacement(effective, name, target)
                    )

    def _apply_repairs(self, now_s: float) -> None:
        """Apply re-placements whose copy has landed by ``now_s``."""
        for rep in self._pending_replacements:
            if rep.applied or rep.effective_s > now_s:
                continue
            rep.applied = True
            function = self.functions[rep.function]
            target = self.hosts[rep.host]
            target.platform.deploy(function)
            source_hid = self._adoption_source(
                rep.function, now_s, exclude=rep.host
            )
            if source_hid is not None:
                target.adopt_prepared(
                    function,
                    self.hosts[source_hid]
                    .platform.deployments[rep.function]
                    .controller,
                    force=rep.force,
                )
            applied = Replacement(
                effective_s=rep.effective_s,
                function=rep.function,
                host=rep.host,
                source=source_hid,
            )
            self.placement.add_replacement(applied)
            self.replacements_applied.append(applied)
            obs = obs_runtime.active()
            if obs is not None:
                obs.metrics.counter(
                    "toss_cluster_replacements_total",
                    "Snapshot re-placements after host crashes",
                ).inc(cold=str(source_hid is None).lower())

    def schedule_re_replication(
        self, function: str, host: int, t_s: float
    ) -> None:
        """Schedule a repair copy back onto ``host`` after a durability
        eviction, through the same pending-replacement bookkeeping host
        crashes use (effective after ``re_replication_delay_s``).  A
        maintenance event at the landing time applies the copy, as a
        crash re-placement's landing edge does."""
        effective = t_s + self.config.re_replication_delay_s
        self._pending_replacements.append(
            _PendingReplacement(effective, function, host, force=True)
        )
        # A batch's settling scrub runs at its latest finish, which can
        # precede the fleet clock (a request shed after re-dispatch
        # finishes at its arrival); such a copy is due at once.
        self.loop.schedule_at(
            max(effective, self.loop.now), self._maintain,
            priority=PRIORITY_RELEASE,
        )

    def _adoption_source(
        self, name: str, t_s: float, exclude: int | None = None
    ) -> int | None:
        """A reachable holder with prepared tiered state, if any."""
        for hid in self.placement.holders_at(name, t_s):
            if hid == exclude:
                continue
            host = self.hosts[hid]
            if not host.reachable_at(t_s):
                continue
            dep = host.platform.deployments.get(name)
            if (
                dep is not None
                and dep.controller.phase is Phase.TIERED
                and dep.controller.tiered_snapshot is not None
            ):
                return hid
        return None

    def _sync_replicas(self, t_s: float) -> None:
        """Replicate prepared state to idle holders (the background
        copy that makes a standby warm before it is ever routed to)."""
        if self.config.replication_factor < 2 and not self.replacements_applied:
            return
        if self.durability is not None:
            # The durability plane replicates the single-tier *file*
            # eagerly (before profiling converges), so a function's only
            # copy can never rot away during its early life.  Gated on
            # the plane so fault-free runs keep the pre-durability
            # replication timeline exactly.
            for name, function in self.functions.items():
                src = None
                src_hid = None
                for hid in self.placement.holders_at(name, t_s):
                    if not self.hosts[hid].reachable_at(t_s):
                        continue
                    dep = self.hosts[hid].platform.deployments.get(name)
                    if (
                        dep is not None
                        and dep.controller.single_snapshot is not None
                    ):
                        src = dep.controller
                        src_hid = hid
                        break
                if src is None:
                    continue
                for hid in self.placement.holders_at(name, t_s):
                    if hid == src_hid:
                        continue
                    target = self.hosts[hid]
                    if target.reachable_at(t_s):
                        target.adopt_single_file(function, src)
        for name, function in self.functions.items():
            source_hid = self._adoption_source(name, t_s)
            if source_hid is None:
                continue
            source = (
                self.hosts[source_hid]
                .platform.deployments[name]
                .controller
            )
            for hid in self.placement.holders_at(name, t_s):
                if hid == source_hid:
                    continue
                target = self.hosts[hid]
                if not target.reachable_at(t_s):
                    continue
                target.adopt_prepared(function, source)

    # -- routing --------------------------------------------------------------

    def _route(self, req: _Pending) -> int | None:
        """The host to dispatch to (None: no live holder right now)."""
        holders = self.placement.holders_at(req.function, req.dispatch_s)
        for position, hid in enumerate(holders):
            if self.hosts[hid].routable_at(req.dispatch_s):
                if position > 0:
                    self.total_failovers += 1
                    obs = obs_runtime.active()
                    if obs is not None:
                        obs.metrics.counter(
                            "toss_cluster_failovers_total",
                            "Requests routed to a non-primary replica",
                        ).inc(function=req.function)
                return hid
        return None

    def _shed(
        self, req: _Pending, reason: str, outcomes: list[ClusterRequestOutcome]
    ) -> None:
        error = ClusterError(
            f"request ({req.arrival_s:.6g}, {req.function!r}, "
            f"{req.input_index}) shed by the cluster: {reason} after "
            f"{req.attempts} dispatch(es) and {req.redispatches} "
            "re-dispatch(es)"
        )
        outcomes.append(
            ClusterRequestOutcome(
                function=req.function,
                input_index=req.input_index,
                arrival_s=req.arrival_s,
                request_class=req.req_class.value,
                host=-1,
                attempts=req.attempts,
                redispatches=req.redispatches,
                kills=req.kills,
                backoff_s=req.backoff_s,
                entry=None,
                shed_reason=reason,
                error=str(error),
            )
        )
        obs = obs_runtime.active()
        if obs is not None:
            obs.metrics.counter(
                "toss_cluster_requests_total",
                "Requests by cluster-level outcome",
            ).inc(outcome="cluster-shed", reason=reason)
            if obs.slo is not None:
                # A cluster shed is an involuntary loss (except
                # fleet-shedding, which availability() also excludes).
                if reason != "fleet-shedding":
                    obs.slo.observe_request(req.dispatch_s, good=False)

    def _retry_or_shed(
        self,
        req: _Pending,
        at_s: float,
        reason: str,
        outcomes: list[ClusterRequestOutcome],
    ) -> bool:
        """Back off a bounded re-dispatch (True: dispatch ``req`` again at
        its new ``dispatch_s``) — or shed it, typed."""
        if req.redispatches >= self.config.max_redispatch_attempts:
            self._shed(req, f"redispatch-exhausted ({reason})", outcomes)
            return False
        req.redispatches += 1
        backoff = self.config.backoff_s(req.redispatches)
        req.backoff_s += backoff
        req.dispatch_s = at_s + backoff
        self.total_redispatches += 1
        obs = obs_runtime.active()
        if obs is not None:
            obs.metrics.counter(
                "toss_cluster_redispatches_total",
                "Re-dispatches of killed or unroutable requests",
            ).inc(reason=reason)
        return True

    # -- serving --------------------------------------------------------------

    def serve(self, requests: list[tuple[Any, ...]]) -> list[ClusterRequestOutcome]:
        """Serve a batch across the fleet; returns one outcome per
        request (sorted by submission).

        Requests dispatch one by one on the fleet timeline in
        ``(dispatch_s, function, input_index, class, redispatches)``
        order, each settling on its host at once; one whose service
        overlaps a crash window is killed and re-dispatched after its
        backoff as a new event.  Re-dispatch budget is bounded, so the
        timeline runs dry.  An arrival before the last dispatch an earlier
        call decided raises :class:`~repro.errors.SchedulerError`.
        """
        parsed = parse_requests(requests, self.functions)
        loop = self.loop
        first = min((r[0] for r in parsed), default=loop.now)
        if first < loop.now:
            raise SchedulerError(
                f"arrival t={first!r}s precedes t={loop.now!r}s, the last "
                "dispatch an earlier serve() call decided"
            )
        parent_obs = obs_runtime.active()
        fleet = parent_obs.fleet if parent_obs is not None else None
        slo = parent_obs.slo if parent_obs is not None else None
        # Hosts serve under an observation without an SLO feed: the
        # cluster feeds every sample itself, host-labelled, from the
        # settled entries, because only it sees kills and cluster sheds.
        # With a fleet aggregator each host serves under its own child
        # (spans and metrics land in a per-host tracer and registry);
        # without one, under the parent minus its feed.
        host_view = None
        if parent_obs is not None and fleet is None:
            host_view = replace(parent_obs, slo=None)
        outcomes: list[ClusterRequestOutcome] = []
        # Each dispatch event pops the queue's minimum, which always sits
        # at the event's own time: ties at one instant settle in the
        # queue's key order, whatever order they were scheduled in.
        queue: list[tuple] = []
        order = itertools.count()

        def enqueue(req: _Pending) -> None:
            key = (req.dispatch_s, req.function, req.input_index,
                   req.req_class.value, req.redispatches, next(order))
            entry = loop.schedule_at(
                req.dispatch_s, dispatch_next,
                priority=PRIORITY_ARRIVAL, category="arrival",
            )
            heapq.heappush(queue, (key, req, entry))

        def dispatch_next(now: float) -> None:
            req = heapq.heappop(queue)[1]
            self._observe_fleet(now)
            throttle = self.fleet_ladder.throttle_prewarm
            for host in self.hosts:
                if host.platform.prewarm is not None:
                    host.platform.prewarm.fleet_throttled = throttle
            if self.fleet_ladder.shed_batch and req.req_class is RequestClass.BATCH:
                self._shed(req, "fleet-shedding", outcomes)
                return
            hid = self._route(req)
            if hid is None:
                if self._retry_or_shed(req, now, "no-live-replica", outcomes):
                    enqueue(req)
                return
            req.attempts += 1
            host = self.hosts[hid]
            view = fleet.host_observation(hid) if fleet is not None else host_view
            with obs_runtime.observing(view) if view is not None else nullcontext():
                entry = host.platform.serve_one(
                    now, req.function, req.input_index, req.req_class
                )
            window = None
            if not entry.shed:
                window = host.crash_overlapping(entry.start_s, entry.finish_s)
            obs = obs_runtime.active()
            if window is not None:
                req.kills += 1
                host.kills += 1
                if obs is not None:
                    obs.metrics.counter(
                        "toss_cluster_kills_total",
                        "In-flight requests killed by host crashes",
                    ).inc(host=str(hid))
                kill_s = max(window[0], now)
                if slo is not None:
                    # The host settled the entry before the crash window
                    # invalidated it: the kill, not the entry, is the
                    # request's sample.
                    slo.observe_request(kill_s, good=False, host=f"host{hid}")
                if self._retry_or_shed(req, kill_s, "host-crash", outcomes):
                    enqueue(req)
                return
            outcomes.append(
                ClusterRequestOutcome(
                    function=req.function,
                    input_index=req.input_index,
                    arrival_s=req.arrival_s,
                    request_class=req.req_class.value,
                    host=hid,
                    attempts=req.attempts,
                    redispatches=req.redispatches,
                    kills=req.kills,
                    backoff_s=req.backoff_s,
                    entry=entry,
                )
            )
            if obs is not None:
                obs.metrics.counter(
                    "toss_cluster_requests_total",
                    "Requests by cluster-level outcome",
                ).inc(
                    outcome="host-shed" if entry.shed
                    else "failed" if entry.failed else "served",
                    host=str(hid),
                )
            if slo is not None:
                observe_slo(slo, entry, host=f"host{hid}")

        for arrival, name, input_index, req_class in parsed:
            enqueue(_Pending(arrival, name, input_index, req_class, dispatch_s=arrival))
        if parsed:
            self.loop.schedule_at(first, self._maintain, priority=PRIORITY_RELEASE)
        # Stop once the last dispatch has been decided: host releases
        # past it stay queued; telemetry stamped past it is flushed.
        try:
            loop.run_while_category("arrival")
        except BaseException:
            # An aborted batch leaves no dispatch for the next call.
            for _, _, entry in queue:
                loop.cancel(entry)
            raise
        loop.drain_category("emit")
        if self.durability is not None:
            # Settle the durability ledger for this batch: every injected
            # corruption ends detected and typed (unaccounted() == 0).
            end = max((o.finish_s for o in outcomes), default=0.0)
            self.durability.finalize(end)
        outcomes.sort(
            key=lambda o: (
                o.arrival_s,
                o.function,
                o.input_index,
                o.request_class,
            )
        )
        self.outcomes.extend(outcomes)
        return outcomes

    # -- reporting ------------------------------------------------------------

    def availability(self) -> float:
        """Served fraction of requests the fleet was obliged to serve.

        Host-admission sheds and fleet batch shedding are deliberate
        policy decisions (mirroring
        :meth:`~repro.platform.server.ServerlessPlatform.availability`)
        and are excluded; involuntary losses — host failures and
        cluster sheds (no live replica / re-dispatch exhausted) — count
        against availability.
        """
        obliged = [
            o
            for o in self.outcomes
            if not o.host_shed and o.shed_reason != "fleet-shedding"
        ]
        if not obliged:
            return 1.0
        served = sum(1 for o in obliged if o.served)
        return served / len(obliged)

    def mean_slowdown(self) -> float:
        """Mean served latency normalised by the input's warm all-DRAM
        execution time (re-dispatch backoff and queueing included) —
        the fleet's normalised-slowdown figure of merit."""
        ratios = []
        for o in self.outcomes:
            if not o.served:
                continue
            baseline = self.functions[o.function].input_spec(
                o.input_index
            ).t_dram_s
            ratios.append(o.latency_s / baseline)
        if not ratios:
            return 0.0
        return sum(ratios) / len(ratios)

    def total_kills(self) -> int:
        """Requests killed in flight across all hosts."""
        return sum(host.kills for host in self.hosts)

    def total_cluster_shed(self) -> int:
        """Requests shed by the cluster itself (typed ClusterError)."""
        return sum(1 for o in self.outcomes if o.cluster_shed)

    def unaccounted(self) -> int:
        """Requests without a typed outcome — always 0 by construction
        (asserted by the no-request-lost tests)."""
        return sum(
            1
            for o in self.outcomes
            if o.entry is None and not o.shed_reason
        )
