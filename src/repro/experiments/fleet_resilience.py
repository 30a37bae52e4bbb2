"""Fleet resilience study (extension): availability vs hosts lost.

The provider-side question behind the cluster layer: when hosts crash,
how much of the fleet's traffic survives, and at what latency cost?
This study runs the synthetic fleet workload on a
:class:`~repro.cluster.fleet.ClusterPlatform` while a widening set of
hosts crashes mid-run (one shared outage window), and reports
availability and normalised slowdown as a function of hosts lost — with
and without snapshot replication.

The expected shape: with ``replication_factor=1`` a crashed host's
functions are unroutable until re-placement lands, so the bounded
re-dispatch budget runs out for requests arriving early in the outage
and availability dips below the 0.99 floor; with
``replication_factor>=2`` the router fails over to a live replica
immediately (the replica adopted the prepared snapshots when profiling
converged) and availability holds at or above 0.99 with only a modest
slowdown from the extra load on survivors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterConfig, ClusterPlatform, FLEET_SUITE, steady_requests
from ..core.toss import TossConfig
from ..errors import ConfigError
from ..faults.plan import FaultPlan, HostFaultSpec
from ..report import Table

__all__ = ["ResilienceCell", "ResilienceResult", "run"]

AVAILABILITY_FLOOR = 0.99
"""The acceptance floor a replicated fleet must hold under a crash."""


@dataclass(frozen=True)
class ResilienceCell:
    """One (replication factor, hosts lost) measurement."""

    replication_factor: int
    hosts_lost: int
    availability: float
    mean_slowdown: float
    kills: int
    redispatches: int
    cluster_shed: int
    failovers: int
    replacements: int


@dataclass(frozen=True)
class ResilienceResult:
    """The full sweep plus its rendered table."""

    cells: tuple[ResilienceCell, ...]
    table: Table

    def cell(self, replication_factor: int, hosts_lost: int) -> ResilienceCell:
        for c in self.cells:
            if (
                c.replication_factor == replication_factor
                and c.hosts_lost == hosts_lost
            ):
                return c
        raise KeyError((replication_factor, hosts_lost))


def run(
    *,
    n_hosts: int = 4,
    replication_factors: tuple[int, ...] = (1, 2),
    hosts_lost: tuple[int, ...] = (0, 1, 2),
    n_requests: int = 200,
    duration_s: float = 8.0,
    crash_s: float = 2.0,
    recover_s: float = 6.0,
    re_replication_delay_s: float = 1.0,
    cores_per_host: int = 4,
    seed: int = 7,
) -> ResilienceResult:
    """Sweep availability and slowdown over hosts lost and replication.

    Every cell runs an identical request stream; the only variables are
    how many hosts share the ``(crash_s, recover_s)`` outage window and
    how widely snapshots are replicated.  ``re_replication_delay_s`` is
    deliberately longer than the re-dispatch backoff budget, so an
    unreplicated fleet *must* shed some of the outage-window traffic —
    the contrast the study exists to show.
    """
    toss_cfg = TossConfig(convergence_window=3, min_profiling_invocations=3)
    table = Table(
        "Fleet resilience: availability and normalised slowdown vs hosts "
        f"lost ({n_hosts} hosts, crash window "
        f"[{crash_s:g}s, {recover_s:g}s))",
        ["replication", "hosts lost", "availability", "mean slowdown",
         "kills", "re-dispatches", "cluster shed", "failovers"],
        precision=4,
    )
    cells: list[ResilienceCell] = []
    for rf in replication_factors:
        for lost in hosts_lost:
            if lost >= n_hosts:
                raise ConfigError("cannot lose every host")
            specs = tuple(
                HostFaultSpec(host=h, crash_windows=((crash_s, recover_s),))
                for h in range(lost)
            )
            plan = FaultPlan(hosts=specs, seed=seed) if specs else None
            cluster = ClusterPlatform(
                ClusterConfig(
                    n_hosts=n_hosts,
                    replication_factor=rf,
                    cores_per_host=cores_per_host,
                    re_replication_delay_s=re_replication_delay_s,
                    seed=seed,
                ),
                toss_cfg=toss_cfg,
                plan=plan,
            )
            cluster.deploy_fleet(list(FLEET_SUITE))
            cluster.serve(
                steady_requests(n_requests=n_requests, duration_s=duration_s)
            )
            cell = ResilienceCell(
                replication_factor=rf,
                hosts_lost=lost,
                availability=cluster.availability(),
                mean_slowdown=cluster.mean_slowdown(),
                kills=cluster.total_kills(),
                redispatches=cluster.total_redispatches,
                cluster_shed=cluster.total_cluster_shed(),
                failovers=cluster.total_failovers,
                replacements=len(cluster.replacements_applied),
            )
            cells.append(cell)
            table.add_row(
                rf, lost, cell.availability, cell.mean_slowdown,
                cell.kills, cell.redispatches, cell.cluster_shed,
                cell.failovers,
            )
    return ResilienceResult(cells=tuple(cells), table=table)
