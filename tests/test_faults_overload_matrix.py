"""Chaos matrix: host faults x non-permissive overload policy, together.

The cluster layer and the per-host overload-resilience layer guard
different failure surfaces — hosts disappearing vs hosts drowning — and
a real incident exercises both at once.  This matrix crashes (or
partitions) hosts from a :class:`~repro.faults.plan.FaultPlan` while
every host runs a non-permissive :class:`OverloadConfig`, and asserts
the combined invariants: both degradation ladders actually move, the
replicated fleet holds its availability floor, and every request ends
with a typed outcome (served, host-shed, or a cluster
:class:`~repro.errors.ClusterError`) — nothing is silently lost.
"""

from __future__ import annotations

from repro.cluster import (
    ClusterConfig,
    ClusterPlatform,
    FLEET_SUITE,
    steady_requests,
)
from repro.core.toss import TossConfig
from repro.faults.plan import FaultPlan, HostFaultSpec, TierFaultSpec
from repro.platform.overload import HealthState, OverloadConfig

SMALL_TOSS = TossConfig(convergence_window=3, min_profiling_invocations=3)

AVAILABILITY_FLOOR = 0.99

TIGHT_OVERLOAD = OverloadConfig(
    slo_factor=20.0,
    breaker_failures=3,
    breaker_cooldown_s=1.0,
    pressured_delay_s=0.010,
    degraded_delay_s=0.040,
    shedding_delay_s=0.120,
    delay_alpha=0.3,
    degraded_fault_rate=0.25,
)


def run_matrix_cell(plan, *, cores_per_host=2, n_requests=240):
    cluster = ClusterPlatform(
        ClusterConfig(
            n_hosts=4, replication_factor=2, cores_per_host=cores_per_host
        ),
        toss_cfg=SMALL_TOSS,
        plan=plan,
        overload=TIGHT_OVERLOAD,
    )
    cluster.deploy_fleet(list(FLEET_SUITE))
    outcomes = cluster.serve(
        steady_requests(n_requests=n_requests, duration_s=8.0)
    )
    return cluster, outcomes


def assert_fully_accounted(cluster, outcomes, n_requests):
    assert len(outcomes) == n_requests
    assert cluster.unaccounted() == 0
    for o in outcomes:
        assert o.served or o.host_shed or o.failed or (
            o.cluster_shed and o.shed_reason and o.error
        )


class TestChaosMatrix:
    def test_host_crash_under_tight_overload_holds_floor(self):
        plan = FaultPlan(
            hosts=(HostFaultSpec(host=0, crash_windows=((2.0, 6.0),)),)
        )
        cluster, outcomes = run_matrix_cell(plan)
        assert cluster.availability() >= AVAILABILITY_FLOOR
        assert_fully_accounted(cluster, outcomes, 240)
        # The fleet ladder reacted to the lost host (one rung) and
        # recovered once it returned.
        moves = {(o, n) for _, o, n in cluster.fleet_ladder.transitions}
        assert (HealthState.HEALTHY, HealthState.PRESSURED) in moves
        assert cluster.fleet_ladder.state is HealthState.HEALTHY

    def test_crash_plus_tier_outage_moves_both_ladders(self):
        # Host 0 dies while every host's slow tier blinks out: the
        # cluster layer handles the former, each host's overload layer
        # absorbs the latter (fallback serving, breaker, ladder).
        plan = FaultPlan(
            hosts=(HostFaultSpec(host=0, crash_windows=((2.0, 6.0),)),),
            tier=TierFaultSpec(outage_windows=((2.5, 4.0),)),
        )
        cluster, outcomes = run_matrix_cell(plan)
        assert cluster.availability() >= AVAILABILITY_FLOOR
        assert_fully_accounted(cluster, outcomes, 240)
        # Host-level ladders observed the outage failures.
        host_moves = [
            move
            for host in cluster.hosts
            for move in host.platform.overload.ladder.transitions
        ]
        assert host_moves, "no host degradation-ladder transitions"
        # Fleet ladder moved on the crashed host.
        assert cluster.fleet_ladder.transitions

    def test_partition_under_tight_overload_loses_nothing(self):
        # Disjoint windows: some replica of every function stays live.
        plan = FaultPlan(
            hosts=(
                HostFaultSpec(host=0, partition_windows=((2.0, 4.0),)),
                HostFaultSpec(host=1, partition_windows=((4.5, 6.0),)),
            )
        )
        cluster, outcomes = run_matrix_cell(plan)
        assert cluster.total_kills() == 0
        assert cluster.availability() >= AVAILABILITY_FLOOR
        assert_fully_accounted(cluster, outcomes, 240)
        assert cluster.total_failovers > 0

    def test_unreplicated_cell_degrades_visibly_not_silently(self):
        # The negative cell of the matrix: rf=1 with a slow repair must
        # lose availability — but only through typed cluster sheds.
        plan = FaultPlan(
            hosts=(HostFaultSpec(host=0, crash_windows=((2.0, 6.0),)),)
        )
        cluster = ClusterPlatform(
            ClusterConfig(
                n_hosts=4,
                replication_factor=1,
                cores_per_host=2,
                re_replication_delay_s=1.0,
            ),
            toss_cfg=SMALL_TOSS,
            plan=plan,
            overload=TIGHT_OVERLOAD,
        )
        cluster.deploy_fleet(list(FLEET_SUITE))
        outcomes = cluster.serve(
            steady_requests(n_requests=240, duration_s=8.0)
        )
        assert cluster.availability() < AVAILABILITY_FLOOR
        assert_fully_accounted(cluster, outcomes, 240)
        shed = [o for o in outcomes if o.cluster_shed]
        assert shed
        assert all("shed by the cluster" in o.error for o in shed)
