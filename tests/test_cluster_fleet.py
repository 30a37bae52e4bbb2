"""The cluster fleet layer: routing, crash semantics, re-dispatch,
re-placement, replication and the fleet degradation ladder.

The load-bearing guarantee is pinned first: a one-host zero-fault
cluster serves **byte-identically** to the bare single-host
:class:`~repro.platform.server.ServerlessPlatform` — the fleet layer is
pure orchestration until a host fault actually fires.  Everything else
layers on top: a crash kills overlapping in-flight requests and evicts
host memory, killed/unroutable requests re-dispatch with bounded
backoff and are shed with a typed :class:`~repro.errors.ClusterError`
when the budget runs out (no request is ever silently lost), replicas
adopt prepared snapshots and absorb failover, and the fleet ladder
throttles pre-warm / sheds batch as hosts disappear.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterPlatform,
    FLEET_SUITE,
    fleet_function,
    steady_requests,
)
from repro.core.telemetry import EventKind, TelemetryLog
from repro.core.toss import Phase, TossConfig
from repro.errors import ConfigError, SchedulerError
from repro.faults.plan import FaultPlan, HostFaultSpec
from repro.obs import FleetAggregator, Observation, SloTracker, observing
from repro.platform.overload import HealthState, OverloadConfig
from repro.platform.server import ServerlessPlatform

SMALL_TOSS = TossConfig(convergence_window=3, min_profiling_invocations=3)


def make_cluster(plan=None, **cfg_kwargs):
    cluster = ClusterPlatform(
        ClusterConfig(**cfg_kwargs), toss_cfg=SMALL_TOSS, plan=plan
    )
    cluster.deploy_fleet(list(FLEET_SUITE))
    return cluster


def crash_plan(*hosts, window=(2.0, 6.0)):
    return FaultPlan(
        hosts=tuple(
            HostFaultSpec(host=h, crash_windows=(window,)) for h in hosts
        )
    )


class TestSingleHostIdentity:
    """Golden regression: N=1, zero faults == the bare platform."""

    def test_zero_fault_n1_cluster_is_byte_identical(self):
        requests = steady_requests(n_requests=48, duration_s=4.0)

        single = ServerlessPlatform(n_cores=4, toss_cfg=SMALL_TOSS)
        for function in FLEET_SUITE:
            single.deploy(function)
        expected = single.serve(requests)

        cluster = make_cluster(n_hosts=1, replication_factor=1,
                               cores_per_host=4)
        outcomes = cluster.serve(requests)

        assert len(outcomes) == len(expected)
        for outcome, entry in zip(outcomes, expected):
            assert outcome.entry == entry
            assert outcome.host == 0
            assert outcome.attempts == 1
            assert outcome.redispatches == 0
        # The orchestration layer left no trace of itself.
        assert cluster.total_redispatches == 0
        assert cluster.total_failovers == 0
        assert cluster.total_kills() == 0
        assert cluster.hosts[0].platform.span_prefix == ""

    def test_zero_fault_multi_host_serves_everything_once(self):
        cluster = make_cluster(n_hosts=4, replication_factor=2)
        outcomes = cluster.serve(
            steady_requests(n_requests=64, duration_s=4.0)
        )
        assert len(outcomes) == 64
        assert all(o.served for o in outcomes)
        assert cluster.availability() == 1.0
        assert cluster.unaccounted() == 0
        # Multi-host platforms carry per-host span prefixes.
        assert cluster.hosts[2].platform.span_prefix == "host2/"

    def test_cluster_runs_are_deterministic(self):
        def run():
            cluster = make_cluster(
                plan=crash_plan(0, 1), n_hosts=4, replication_factor=2
            )
            return cluster.serve(
                steady_requests(n_requests=80, duration_s=8.0)
            )

        first, second = run(), run()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a == b


class TestCrashAndRedispatch:
    def kill_scenario(self, replication_factor):
        """A long request straddling host 0's crash at t=2.0."""
        cluster = ClusterPlatform(
            ClusterConfig(
                n_hosts=2,
                replication_factor=replication_factor,
                cores_per_host=2,
            ),
            toss_cfg=SMALL_TOSS,
            plan=crash_plan(0),
        )
        slow = fleet_function("slowpoke", 128, 0.05)
        cluster.deploy(slow)
        requests = [(0.1 * i, "slowpoke", i % 4) for i in range(12)]
        requests.append((1.9, "slowpoke", 3))  # xl input: ~0.4 s of work
        return cluster, cluster.serve(requests)

    def test_crash_kills_inflight_request_and_replica_serves_it(self):
        cluster, outcomes = self.kill_scenario(replication_factor=2)
        victim = [o for o in outcomes if o.arrival_s == 1.9][0]
        assert victim.kills >= 1
        assert victim.redispatches >= 1
        assert victim.served
        assert victim.host == 1
        assert victim.backoff_s > 0.0
        assert cluster.total_kills() >= 1
        assert cluster.total_failovers >= 1
        # The replica had adopted the primary's prepared state, so it
        # serves tiered immediately — no second profiling run.
        dep = cluster.hosts[1].platform.deployments["slowpoke"]
        assert dep.controller.phase is Phase.TIERED
        assert cluster.hosts[1].adoptions >= 1
        assert cluster.unaccounted() == 0

    def test_crash_evicts_keepalive_and_prewarm_state(self):
        cluster = ClusterPlatform(
            ClusterConfig(n_hosts=2, replication_factor=2),
            toss_cfg=SMALL_TOSS,
            plan=crash_plan(0),
            keepalive_mb=1024.0,
            prewarm=True,
        )
        slow = fleet_function("slowpoke", 128, 0.05)
        cluster.deploy(slow)
        requests = [(0.1 * i, "slowpoke", i % 4) for i in range(12)]
        requests.append((1.9, "slowpoke", 3))
        cluster.serve(requests)
        victim_platform = cluster.hosts[0].platform
        assert victim_platform.keepalive.used_mb == 0.0
        assert not victim_platform.prewarm.predictors

    def test_unreplicated_fleet_sheds_typed_when_backoff_runs_out(self):
        # Re-placement lands long after the re-dispatch budget: requests
        # arriving early in the outage *must* shed, visibly and typed.
        cluster = make_cluster(
            plan=crash_plan(0),
            n_hosts=4,
            replication_factor=1,
            re_replication_delay_s=1.0,
        )
        outcomes = cluster.serve(
            steady_requests(n_requests=200, duration_s=8.0)
        )
        shed = [o for o in outcomes if o.cluster_shed]
        assert shed
        assert cluster.availability() < 1.0
        for o in shed:
            assert o.shed_reason.startswith("redispatch-exhausted")
            assert "ClusterError" not in o.error  # message, not repr
            assert "shed by the cluster" in o.error
            assert o.redispatches == cluster.config.max_redispatch_attempts
        assert cluster.unaccounted() == 0
        # The crashed host's functions were re-placed onto survivors,
        # so traffic after the copy landed is served again.
        assert cluster.replacements_applied
        late = [o for o in outcomes if o.arrival_s >= 4.0]
        assert all(o.served for o in late)

    def test_replicated_fleet_holds_availability_floor(self):
        cluster = make_cluster(
            plan=crash_plan(0),
            n_hosts=4,
            replication_factor=2,
            re_replication_delay_s=1.0,
        )
        outcomes = cluster.serve(
            steady_requests(n_requests=200, duration_s=8.0)
        )
        assert cluster.availability() >= 0.99
        assert cluster.total_failovers > 0
        assert cluster.unaccounted() == 0
        assert all(
            o.redispatches <= cluster.config.max_redispatch_attempts
            for o in outcomes
        )

    def test_no_live_holder_ever_sheds_everything_typed(self):
        cluster = ClusterPlatform(
            ClusterConfig(n_hosts=1, replication_factor=1),
            toss_cfg=SMALL_TOSS,
            plan=crash_plan(0, window=(0.0, 100.0)),
        )
        cluster.deploy(fleet_function("orphan", 128, 0.002))
        outcomes = cluster.serve([(0.5 * i, "orphan", 0) for i in range(6)])
        assert all(o.cluster_shed for o in outcomes)
        assert all(o.attempts == 0 for o in outcomes)
        assert all(o.error for o in outcomes)
        assert cluster.unaccounted() == 0

    def test_partition_fails_over_without_kills(self):
        plan = FaultPlan(
            hosts=(
                HostFaultSpec(host=0, partition_windows=((2.0, 6.0),)),
            )
        )
        cluster = make_cluster(plan=plan, n_hosts=4, replication_factor=2)
        outcomes = cluster.serve(
            steady_requests(n_requests=120, duration_s=8.0)
        )
        assert cluster.total_kills() == 0
        assert cluster.total_failovers > 0
        assert all(o.served for o in outcomes)
        assert cluster.availability() == 1.0


class TestFleetLadder:
    def test_half_fleet_down_degrades_then_recovers(self):
        cluster = make_cluster(
            plan=crash_plan(0, 1), n_hosts=4, replication_factor=2
        )
        cluster.serve(steady_requests(n_requests=160, duration_s=8.0))
        ladder = cluster.fleet_ladder
        moves = {(old, new) for _, old, new in ladder.transitions}
        # One rung at a time, up while half the fleet is down ...
        assert (HealthState.HEALTHY, HealthState.PRESSURED) in moves
        assert (HealthState.PRESSURED, HealthState.DEGRADED) in moves
        # ... and back down once the hosts return.
        assert (HealthState.DEGRADED, HealthState.PRESSURED) in moves
        assert ladder.state in (HealthState.HEALTHY, HealthState.PRESSURED)
        # Transition timestamps are monotone.
        stamps = [at for at, _, _ in ladder.transitions]
        assert stamps == sorted(stamps)

    def test_shedding_fleet_rejects_batch_at_admission(self):
        # 3 of 4 hosts down crosses the shedding rung: batch traffic
        # arriving then is refused before it is ever routed.
        cluster = make_cluster(
            plan=crash_plan(0, 1, 2), n_hosts=4, replication_factor=2
        )
        outcomes = cluster.serve(
            steady_requests(n_requests=200, duration_s=8.0)
        )
        fleet_shed = [
            o for o in outcomes if o.shed_reason == "fleet-shedding"
        ]
        assert fleet_shed
        assert all(o.request_class == "batch" for o in fleet_shed)
        # Fleet-shedding is a policy decision: it does not count
        # against availability, and latency traffic still found a host.
        latency = [o for o in outcomes if o.request_class == "latency"]
        assert any(o.served for o in latency)

    def test_degraded_fleet_throttles_prewarm_everywhere(self):
        cluster = ClusterPlatform(
            ClusterConfig(n_hosts=4, replication_factor=2),
            toss_cfg=SMALL_TOSS,
            plan=crash_plan(0, 1),
            prewarm=True,
        )
        cluster.deploy_fleet(list(FLEET_SUITE))
        cluster.serve(steady_requests(n_requests=120, duration_s=5.5))
        # The stream ends inside the outage (fleet DEGRADED): the last
        # dispatches were served with pre-warm suspended on every host.
        assert cluster.fleet_ladder.state >= HealthState.DEGRADED
        assert all(
            host.platform.prewarm.fleet_throttled for host in cluster.hosts
        )


class TestClusterMetrics:
    def test_chaos_run_emits_cluster_metric_families(self):
        with observing() as obs:
            cluster = make_cluster(
                plan=crash_plan(0, 1), n_hosts=4, replication_factor=2
            )
            cluster.serve(steady_requests(n_requests=120, duration_s=8.0))
        names = {f.name for f in obs.metrics.families()}
        assert "toss_cluster_requests_total" in names
        assert "toss_cluster_redispatches_total" in names
        assert "toss_cluster_replacements_total" in names
        assert "toss_cluster_failovers_total" in names
        assert "toss_cluster_health_transitions_total" in names

    def test_multi_host_spans_carry_host_prefixes(self):
        with observing() as obs:
            cluster = make_cluster(n_hosts=2, replication_factor=1)
            cluster.serve(steady_requests(n_requests=16, duration_s=2.0))
        prefixes = {
            s.name.split("/")[0]
            for s in obs.tracer.spans
            if s.name.startswith("host")
        }
        assert prefixes == {"host0", "host1"}


class RecordingTracker(SloTracker):
    """An SLO tracker that also keeps every signal sample it is fed."""

    def __init__(self) -> None:
        super().__init__()
        self.signal_log: list[tuple[str, float, float, str]] = []

    def observe_signal(self, signal, value, at_s, *, host=""):
        self.signal_log.append((signal, value, at_s, host))
        super().observe_signal(signal, value, at_s, host=host)


class TestClusterSloFeed:
    """The cluster alone feeds the SLO tracker for its hosts, from each
    request's settled log entry, whether or not a fleet aggregator is
    attached."""

    def run(self, with_aggregator):
        telemetry = TelemetryLog()
        cluster = ClusterPlatform(
            ClusterConfig(n_hosts=3, replication_factor=1, cores_per_host=2),
            toss_cfg=SMALL_TOSS,
            plan=crash_plan(0, window=(1.0, 3.0)),
            overload=OverloadConfig(
                max_queue_depth=2,
                max_queue_delay_s=0.01,
                pressured_delay_s=0.004,
                degraded_delay_s=0.01,
                shedding_delay_s=0.03,
            ),
            telemetry=telemetry,
        )
        cluster.deploy_fleet(list(FLEET_SUITE))
        tracker = RecordingTracker()
        aggregator = FleetAggregator(tracker) if with_aggregator else None
        with observing(Observation(slo=tracker, fleet=aggregator)):
            outcomes = cluster.serve(
                steady_requests(n_requests=300, duration_s=4.0, batch_every=3)
            )
        return cluster, outcomes, tracker, telemetry

    @pytest.mark.parametrize(
        "with_aggregator", [False, True], ids=["no-aggregator", "aggregator"]
    )
    def test_one_request_sample_per_obliged_outcome(self, with_aggregator):
        cluster, outcomes, tracker, _ = self.run(with_aggregator)
        kills = cluster.total_kills()
        lost = sum(
            o.cluster_shed and o.shed_reason != "fleet-shedding"
            for o in outcomes
        )
        assert kills > 0 and lost > 0
        served = sum(o.served for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        # A killed attempt is one bad sample, never also a good one.
        assert tracker.sample_count() == served + failed + kills + lost

    @pytest.mark.parametrize(
        "with_aggregator", [False, True], ids=["no-aggregator", "aggregator"]
    )
    def test_host_shed_signal_is_the_decision_time_wait(self, with_aggregator):
        _, outcomes, tracker, telemetry = self.run(with_aggregator)
        sheds = [o for o in outcomes if o.host_shed]
        waits = [o.entry.queue_delay_s for o in sheds]
        assert max(waits) > 0.0
        for o in sheds:
            sample = (
                "queue_delay_s", o.entry.queue_delay_s, o.entry.arrival_s,
                f"host{o.host}",
            )
            assert sample in tracker.signal_log
        # The same wait the host stamped on its shed telemetry.
        stamped = [
            e.detail["queue_delay_s"]
            for e in telemetry.of_kind(EventKind.REQUEST_SHED)
        ]
        assert sorted(stamped) == sorted(round(w, 6) for w in waits)


class TestValidationAndConfig:
    def test_unknown_function_rejected(self):
        cluster = make_cluster(n_hosts=2)
        with pytest.raises(SchedulerError, match="not deployed"):
            cluster.serve([(0.0, "ghost", 0)])

    def test_bad_input_index_rejected(self):
        cluster = make_cluster(n_hosts=2)
        with pytest.raises(SchedulerError, match="input_index"):
            cluster.serve([(0.0, "fleet_api", 9)])

    def test_malformed_tuple_rejected(self):
        cluster = make_cluster(n_hosts=2)
        with pytest.raises(SchedulerError, match="malformed"):
            cluster.serve([(0.0, "fleet_api")])

    def test_unknown_request_class_rejected(self):
        cluster = make_cluster(n_hosts=2)
        with pytest.raises(SchedulerError, match="unknown request class"):
            cluster.serve([(0.0, "fleet_api", 0, "bulk")])

    @pytest.mark.parametrize(
        "request_tuple,why",
        [
            ((float("nan"), "fleet_api", 0), "arrival time must be finite"),
            ((float("inf"), "fleet_api", 0), "arrival time must be finite"),
            (("1.0", "fleet_api", 0), "arrival time must be a number"),
            ((0.0, "fleet_api", 1.5), "input_index must be an integer"),
            ((0.0, "fleet_api", True), "input_index must be an integer"),
        ],
        ids=["nan", "inf", "str-arrival", "float-index", "bool-index"],
    )
    def test_bad_field_types_rejected_by_name(self, request_tuple, why):
        cluster = make_cluster(n_hosts=2)
        with pytest.raises(SchedulerError, match=why) as info:
            cluster.serve([(0.0, "fleet_api", 0), request_tuple])
        assert repr(request_tuple[0]) in str(info.value)
        assert cluster.outcomes == []

    @pytest.mark.parametrize(
        "n_hosts,spec_host", [(1, 1), (4, 4), (4, 9)], ids=["1of1", "4of4", "9of4"]
    )
    def test_fault_spec_outside_fleet_rejected(self, n_hosts, spec_host):
        with pytest.raises(ConfigError, match=rf"host {spec_host}\b.*n_hosts={n_hosts}"):
            ClusterPlatform(
                ClusterConfig(n_hosts=n_hosts), plan=crash_plan(spec_host)
            )

    @pytest.mark.parametrize(
        "n_requests",
        [-1, 2.5, 4.0, True],
        ids=["negative", "fraction", "float", "bool"],
    )
    def test_steady_request_count_rejected_by_name(self, n_requests):
        with pytest.raises(ConfigError, match="n_requests") as info:
            steady_requests(n_requests=n_requests, duration_s=1.0)
        assert repr(n_requests) in str(info.value)

    def test_steady_zero_requests_is_empty(self):
        assert steady_requests(n_requests=0, duration_s=1.0) == []

    def test_serve_cannot_go_back_in_time(self):
        cluster = make_cluster(n_hosts=2)
        cluster.serve([(1.0, "fleet_api", 0)])
        with pytest.raises(SchedulerError, match="precedes"):
            cluster.serve([(0.5, "fleet_api", 0)])
        assert len(cluster.outcomes) == 1

    def test_aborted_call_leaves_nothing_for_the_next(self, monkeypatch):
        cluster = make_cluster(n_hosts=2)
        invoke = ServerlessPlatform._invoke
        calls = []

        def third_raises(self, dep, input_index, **kwargs):
            calls.append(input_index)
            if len(calls) == 3:
                raise SchedulerError("internal error")
            return invoke(self, dep, input_index, **kwargs)

        monkeypatch.setattr(ServerlessPlatform, "_invoke", third_raises)
        with pytest.raises(SchedulerError, match="internal error"):
            cluster.serve([(0.1 * i, "fleet_api", 0) for i in range(6)])
        monkeypatch.setattr(ServerlessPlatform, "_invoke", invoke)
        outcomes = cluster.serve([(1.0, "fleet_api", 1)])
        assert [(o.arrival_s, o.input_index) for o in outcomes] == [(1.0, 1)]

    def test_deploy_is_idempotent(self):
        cluster = make_cluster(n_hosts=4, replication_factor=2)
        holders = cluster.deploy(FLEET_SUITE[0])
        assert holders == cluster.placement.base_holders("fleet_api")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_hosts=0),
            dict(replication_factor=0),
            dict(n_hosts=2, replication_factor=3),
            dict(cores_per_host=0),
            dict(max_redispatch_attempts=-1),
            dict(redispatch_backoff_base_s=0.0),
            dict(redispatch_backoff_base_s=0.5, redispatch_backoff_cap_s=0.1),
            dict(re_replication_delay_s=-1.0),
            dict(hosts_down_pressured=0.0),
            dict(hosts_down_pressured=0.8, hosts_down_degraded=0.5),
            dict(re_replication_delay_s=float("nan")),
            dict(re_replication_delay_s=float("inf")),
            dict(redispatch_backoff_base_s=float("nan")),
            dict(redispatch_backoff_cap_s=float("inf")),
            dict(cores_per_host=2.5),
            dict(max_redispatch_attempts=1.5),
            dict(n_hosts=True),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs)

    def test_backoff_schedule_is_capped_exponential(self):
        cfg = ClusterConfig(
            redispatch_backoff_base_s=0.05, redispatch_backoff_cap_s=0.4
        )
        assert cfg.backoff_s(1) == pytest.approx(0.05)
        assert cfg.backoff_s(2) == pytest.approx(0.10)
        assert cfg.backoff_s(3) == pytest.approx(0.20)
        assert cfg.backoff_s(4) == pytest.approx(0.40)
        assert cfg.backoff_s(5) == pytest.approx(0.40)
        with pytest.raises(ConfigError):
            cfg.backoff_s(0)
