"""Whole request streams, run on the execute kernel and on the scalar oracle.

Every execute in ``src/`` goes through
:func:`repro.sim.batchexec.execute_cohort`; ``MicroVM.execute`` is its
one-trace case.  Each scenario here builds and runs twice: once with
``MicroVM.execute`` patched to the scalar loop kept in
``scalar_oracle``, once as shipped.  Every request-log entry, every
telemetry event on the trace and every fault-plane counter must come
out equal, so the kernel is checked on the states a serving stream
actually reaches: lazy profiling restores through the host page cache,
warm keep-alive starts, tiered restores under slow-tier backpressure and
an outage, and a cluster whose hosts crash while bit rot is scrubbed
and repaired.
"""

from __future__ import annotations

from repro.cluster import FLEET_SUITE, ClusterConfig, ClusterPlatform
from repro.cluster.workload import steady_requests
from repro.core.telemetry import EventKind
from repro.core.toss import Phase, TossConfig
from repro.durability import ScrubConfig
from repro.faults import FaultInjector, FaultPlan, TierFaultSpec
from repro.faults.plan import BitRotSpec, HostFaultSpec
from repro.obs.runtime import observing
from repro.platform.keepalive import KeepAliveCache
from repro.platform.server import ServerlessPlatform
from repro.vm.microvm import MicroVM

from scalar_oracle import scalar_execute
from telemetry_events import kind_of, milestones

TOSS_CFG = TossConfig(convergence_window=3, min_profiling_invocations=3)


def _telemetry(tracer):
    return [(e.name, e.attrs) for e in milestones(tracer)]


def _both_engines(scenario, monkeypatch):
    """``scenario()`` on the scalar oracle, then on the kernel."""
    with monkeypatch.context() as m:
        m.setattr(MicroVM, "execute", scalar_execute)
        oracle = scenario()
    return oracle, scenario()


def _platform_stream():
    functions = FLEET_SUITE[:3]
    injector = FaultInjector(
        FaultPlan(
            tier=TierFaultSpec(
                outage_windows=((1.0, 1.6),),
                backpressure_windows=((2.0, 3.0, 4.0),),
            )
        )
    )
    platform = ServerlessPlatform(
        n_cores=4,
        toss_cfg=TOSS_CFG,
        # Too small to keep every converged function warm, so tiered
        # restores and warm keep-alive starts interleave.
        keepalive=KeepAliveCache(100.0),
        faults=injector,
    )
    for function in functions:
        platform.deploy(function)
    with observing() as obs:
        log = platform.serve(
            [(0.05 * i, functions[i % 3].name, i % 4) for i in range(80)]
        )
    return (
        log,
        _telemetry(obs.tracer),
        dict(injector.counters),
        platform.keepalive.hits,
    )


def _cluster_stream():
    functions = FLEET_SUITE[:2]
    cluster = ClusterPlatform(
        ClusterConfig(n_hosts=4, replication_factor=2, cores_per_host=2),
        toss_cfg=TOSS_CFG,
        plan=FaultPlan(
            hosts=tuple(
                HostFaultSpec(host=h, crash_windows=((1.0, 2.0),)) for h in (0, 1)
            ),
            bitrot=BitRotSpec(
                ssd_rate_per_page_s=2e-5,
                pmem_rate_per_page_s=1e-5,
                latent_sector_rate_per_s=0.2,
                torn_write_rate=0.2,
            ),
            seed=11,
        ),
        scrub=ScrubConfig(interval_s=1.0, ops_per_page=0.25),
    )
    cluster.deploy_fleet(list(functions))
    with observing() as obs:
        outcomes = cluster.serve(
            steady_requests(n_requests=100, duration_s=4.0, functions=functions)
        )
    return outcomes, _telemetry(obs.tracer), cluster.durability.summary()


def test_platform_stream_is_engine_independent(monkeypatch):
    oracle, kernel = _both_engines(_platform_stream, monkeypatch)
    log, events, counters, keepalive_hits = kernel
    # The stream reaches every execute path it is meant to cover.
    phases = {e.phase for e in log}
    assert {Phase.PROFILING, Phase.TIERED} <= phases
    kinds = {kind_of(name) for name, _ in events}
    assert {
        EventKind.TIERED_INVOCATION,
        EventKind.TIER_BACKPRESSURE,
        EventKind.FALLBACK_RESTORE,
    } <= kinds
    assert keepalive_hits > 0
    assert counters["outages_hit"] > 0 and counters["backpressure_hits"] > 0
    assert kernel == oracle


def test_cluster_stream_is_engine_independent(monkeypatch):
    oracle, kernel = _both_engines(_cluster_stream, monkeypatch)
    outcomes, events, durability = kernel
    assert sum(o.kills for o in outcomes) > 0
    assert sum(o.redispatches for o in outcomes) > 0
    assert durability["events"] > 0 and durability["scrub_passes"] > 0
    assert events
    assert kernel == oracle
