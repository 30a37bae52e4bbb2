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

Serving is *wave-based*: the request timeline is split at host-fault
boundaries (window edges and re-placement effective times) and each host
serves each wave's sub-batch through its ordinary
:meth:`~repro.platform.server.ServerlessPlatform.serve`.  With no host
faults there is exactly one wave and one ``serve()`` call per host, so a
one-host zero-fault cluster is byte-identical to the single-host
platform — the golden regression the test suite pins.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .. import rng as rng_mod
from ..core.telemetry import TelemetryLog
from ..core.toss import Phase, TossConfig
from ..durability import DurabilityManager, ScrubConfig
from ..errors import ClusterError, ConfigError
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

    def sort_key(self) -> tuple[float, str, int, str, int]:
        return (
            self.dispatch_s,
            self.function,
            self.input_index,
            self.req_class.value,
            self.redispatches,
        )


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
        telemetry: TelemetryLog | None = None,
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
                telemetry=telemetry,
                overload=OverloadPolicy(overload) if overload is not None else None,
            )
            if config.n_hosts > 1:
                # Single-host clusters keep the empty prefix so their
                # traces stay byte-identical to the bare platform.
                platform.span_prefix = f"host{hid}/"
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

    def _boundaries(self) -> list[float]:
        """Wave-split times: host fault-window edges plus re-placement
        effective times (all declarative, so computable up front)."""
        if self.plan is None:
            return []
        times: set[float] = set()
        for spec in self.plan.hosts:
            for start, end in spec.crash_windows:
                times.add(start)
                times.add(end)
                times.add(start + self.config.re_replication_delay_s)
            for start, end in spec.partition_windows:
                times.add(start)
                times.add(end)
        return sorted(times)

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
                host.apply_crash_eviction(window)
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
        crashes use (effective after ``re_replication_delay_s``)."""
        self._pending_replacements.append(
            _PendingReplacement(
                t_s + self.config.re_replication_delay_s,
                function,
                host,
                force=True,
            )
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
        next_pending: list[_Pending],
        outcomes: list[ClusterRequestOutcome],
    ) -> None:
        """Queue a bounded, backed-off re-dispatch — or shed, typed."""
        if req.redispatches >= self.config.max_redispatch_attempts:
            self._shed(req, f"redispatch-exhausted ({reason})", outcomes)
            return
        req.redispatches += 1
        backoff = self.config.backoff_s(req.redispatches)
        req.backoff_s += backoff
        req.dispatch_s = at_s + backoff
        self.total_redispatches += 1
        next_pending.append(req)
        obs = obs_runtime.active()
        if obs is not None:
            obs.metrics.counter(
                "toss_cluster_redispatches_total",
                "Re-dispatches of killed or unroutable requests",
            ).inc(reason=reason)

    # -- serving --------------------------------------------------------------

    def serve(self, requests: list[tuple[Any, ...]]) -> list[ClusterRequestOutcome]:
        """Serve a batch across the fleet; returns one outcome per
        request (in final settlement order, sorted by submission)."""
        pending = [
            _Pending(arrival, name, input_index, req_class, dispatch_s=arrival)
            for arrival, name, input_index, req_class in parse_requests(
                requests, self.functions
            )
        ]
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
        boundaries = self._boundaries()
        if self.durability is not None and pending:
            # Scrub ticks split waves too, so a pass's detections and
            # repairs land between sub-batches, not after the whole run.
            horizon = max(r.arrival_s for r in pending)
            boundaries = sorted(
                set(boundaries)
                | set(self.durability.scrub_boundaries(horizon))
            )
        outcomes: list[ClusterRequestOutcome] = []
        boundary_arr = np.asarray(boundaries, dtype=np.float64)
        max_waves = (
            (len(boundaries) + 1)
            * (self.config.max_redispatch_attempts + 1)
            * max(len(pending), 1)
        )
        waves = 0
        while pending:
            waves += 1
            if waves > max_waves:
                raise ClusterError(
                    "cluster serve did not converge (internal error)"
                )
            pending.sort(key=_Pending.sort_key)
            wave_start = pending[0].dispatch_s
            # Both the boundary list and the pending queue are sorted
            # (dispatch time is the sort key's leading field), so the
            # next boundary and the wave's membership split are binary
            # searches over arrays, not linear scans per wave.
            b_idx = int(np.searchsorted(boundary_arr, wave_start, side="right"))
            wave_end = (
                float(boundary_arr[b_idx])
                if b_idx < boundary_arr.size
                else math.inf
            )
            self._schedule_repairs(wave_start)
            if self.durability is not None:
                self.durability.advance_to(wave_start)
            self._apply_repairs(wave_start)
            self._sync_replicas(wave_start)

            dispatches = np.fromiter(
                (r.dispatch_s for r in pending),
                dtype=np.float64,
                count=len(pending),
            )
            split = int(np.searchsorted(dispatches, wave_end, side="left"))
            current = pending[:split]
            pending = pending[split:]
            routed: dict[int, list[_Pending]] = {}
            for req in current:
                self._observe_fleet(req.dispatch_s)
                if (
                    self.fleet_ladder.shed_batch
                    and req.req_class is RequestClass.BATCH
                ):
                    self._shed(req, "fleet-shedding", outcomes)
                    continue
                hid = self._route(req)
                if hid is None:
                    self._retry_or_shed(
                        req, req.dispatch_s, "no-live-replica",
                        pending, outcomes,
                    )
                    continue
                req.attempts += 1
                routed.setdefault(hid, []).append(req)

            throttle = self.fleet_ladder.throttle_prewarm
            for host in self.hosts:
                if host.platform.prewarm is not None:
                    host.platform.prewarm.fleet_throttled = throttle
            for hid in sorted(routed):
                host = self.hosts[hid]
                sub = routed[hid]
                sub_requests = [
                    (r.dispatch_s, r.function, r.input_index, r.req_class)
                    for r in sub
                ]
                view = fleet.host_observation(hid) if fleet is not None else host_view
                with (
                    obs_runtime.observing(view)
                    if view is not None
                    else nullcontext()
                ):
                    entries = host.platform.serve(sub_requests)
                # serve() appends exactly one entry per request, in
                # (arrival, name, input, class) order — the same order
                # ``sub`` is already in — so the zip is positional truth.
                for req, entry in zip(sub, entries):
                    window = None
                    if not entry.shed:
                        window = host.crash_overlapping(
                            entry.start_s, entry.finish_s
                        )
                    if window is not None:
                        req.kills += 1
                        host.kills += 1
                        host.apply_crash_eviction(window)
                        obs = obs_runtime.active()
                        if obs is not None:
                            obs.metrics.counter(
                                "toss_cluster_kills_total",
                                "In-flight requests killed by host crashes",
                            ).inc(host=str(hid))
                        kill_s = max(window[0], req.dispatch_s)
                        if slo is not None:
                            # The host settled the entry before the crash
                            # window invalidated it: the kill, not the
                            # entry, is the request's sample.
                            slo.observe_request(
                                kill_s, good=False, host=f"host{hid}"
                            )
                        self._retry_or_shed(
                            req, kill_s, "host-crash", pending, outcomes
                        )
                        continue
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
                    obs = obs_runtime.active()
                    if obs is not None:
                        if entry.shed:
                            outcome_label = "host-shed"
                        elif entry.failed:
                            outcome_label = "failed"
                        else:
                            outcome_label = "served"
                        obs.metrics.counter(
                            "toss_cluster_requests_total",
                            "Requests by cluster-level outcome",
                        ).inc(outcome=outcome_label, host=str(hid))
                    if slo is not None:
                        observe_slo(slo, entry, host=f"host{hid}")
            if pending and wave_end is not math.inf:
                # Background replication that completed during this wave:
                # copies are taken from the holders' state just before the
                # boundary — a crash *at* the boundary cannot reach back
                # and undo a copy that already landed.
                self._sync_replicas(math.nextafter(wave_end, -math.inf))
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
