"""The tracked benchmark kernels.

Each kernel times one expensive simulation path at the scale that
dominates real runs:

* ``fig9_c100`` / ``fig9_c1000`` — the Figure 9 concurrency sweep on one
  function at C=100 / C=1000 (the fleet-scale point the ROADMAP targets;
  4 systems x C cold invocations plus the equilibrium solve and batch
  replay per level).
* ``fleet_study`` — the full fleet packing/billing study (Table I plus
  the extended workloads), including per-function TOSS preparation and
  the staggered open-timeline run.
* ``damon_profile_suite`` — DAMON profiling of the Table I suite: four
  aggregation-adaptation passes per function over pre-generated epoch
  records (the profiling inner loop every TOSS preparation pays).
* ``contention_solve`` — cold contention fixed points over synthetic
  demand batches on a fresh model (no memoization reuse).
* ``contention_solve_repeat`` — the same batch re-solved on one model:
  tracks the solver memoization the platform relies on for repeated
  identical waves.
* ``cluster_c100`` / ``cluster_chaos`` — the cluster fleet layer serving
  a steady stream on 4 hosts, fault-free and with two hosts crashing
  mid-stream (kills, re-dispatch, re-placement, fleet ladder).
* ``scrub_fleet`` — the same fleet under elevated bit-rot with a 1s
  scrub cadence: at-rest aging, token-bucket scrub I/O and chunk repair
  from replicas at every fleet maintenance event.

Kernels tagged ``smoke`` form the CI subset
(``python -m repro bench --filter smoke``).
"""

from __future__ import annotations

import numpy as np

from .harness import BenchKernel

__all__ = ["KERNELS", "kernels_matching"]


# -- fig9 ----------------------------------------------------------------------


def _fig9_setup():
    from ..experiments import fig9_scalability

    return fig9_scalability


def _fig9_run_at(concurrency: int):
    def run(mod):
        return mod.run(
            function_names=["pyaes"],
            concurrency_levels=(concurrency,),
            n_cores=concurrency,
        )

    return run


# -- fleet ---------------------------------------------------------------------


def _fleet_setup():
    from ..experiments import fleet_study

    return fleet_study


def _fleet_run(mod):
    return mod.run()


# -- TCO frontier --------------------------------------------------------------

_TCO_THRESHOLDS = (0.05, 0.15, 0.30)


def _tco_setup():
    from ..experiments import tco_frontier

    # Converge the profiling pipeline outside the timed body; the timed
    # run measures the frontier sweep itself (one N-tier search per
    # configuration and budget).
    tco_frontier.run(slowdown_thresholds=(_TCO_THRESHOLDS[0],))
    return tco_frontier


def _tco_run(mod):
    return mod.run(slowdown_thresholds=_TCO_THRESHOLDS)


# -- DAMON ---------------------------------------------------------------------

_DAMON_PASSES = 4


def _damon_setup():
    from ..functions import SUITE
    from ..vm.vmm import VMM

    vmm = VMM()
    records = []
    for func in SUITE:
        boot = vmm.boot_and_run(func, 3, 0)
        records.append((func.n_pages, boot.execution.epoch_records))
    return records


def _damon_run(records):
    from ..profiling.damon import DamonProfiler

    observed = 0
    for n_pages, epoch_records in records:
        damon = DamonProfiler(n_pages, rng=np.random.default_rng(7))
        for _ in range(_DAMON_PASSES):
            snapshot = damon.profile(epoch_records)
        observed += snapshot.observed_pages
    return observed


# -- contention ----------------------------------------------------------------

_SOLVE_BATCHES = 40
_SOLVE_BATCH_SIZE = 50


def _synthetic_demands() -> list[list]:
    """Deterministic demand batches spanning light to near-saturated load."""
    from ..memsim.bandwidth import TierDemand

    rng = np.random.default_rng(42)
    batches = []
    for _ in range(_SOLVE_BATCHES):
        batch = []
        for _ in range(_SOLVE_BATCH_SIZE):
            cpu, fast, sread, swrite, ssd, uffd = rng.uniform(
                0.01, 0.5, size=6
            )
            batch.append(
                TierDemand(
                    cpu_time_s=float(cpu),
                    fast_stall_s=float(fast),
                    fast_bytes=float(fast) * 2e9,
                    slow_read_stall_s=float(sread),
                    slow_read_ops=float(sread) * 3e6,
                    slow_write_stall_s=float(swrite),
                    slow_write_ops=float(swrite) * 4e5,
                    ssd_stall_s=float(ssd),
                    ssd_ops=float(ssd) * 2e5,
                    uffd_stall_s=float(uffd),
                    uffd_ops=float(uffd) * 1e5,
                )
            )
        batches.append(batch)
    return batches


def _contention_model():
    from ..memsim.bandwidth import ContentionModel
    from ..memsim.storage import OPTANE_SSD_SPEC
    from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM

    return ContentionModel(DEFAULT_MEMORY_SYSTEM, OPTANE_SSD_SPEC)


def _solve_cold_run(batches):
    # A fresh model per run: every fixed point is solved from scratch.
    model = _contention_model()
    total = 0.0
    for batch in batches:
        total += model.contended_times(batch)[0]
    return total


class _RepeatState:
    def __init__(self) -> None:
        self.model = _contention_model()
        self.batches = _synthetic_demands()[:4]


def _solve_repeat_setup():
    return _RepeatState()


def _solve_repeat_run(state: _RepeatState):
    # One long-lived model re-solving identical batches (wave replay).
    total = 0.0
    for _ in range(_SOLVE_BATCHES // 4):
        for batch in state.batches:
            total += state.model.contended_times(batch)[0]
    return total


# -- cluster -------------------------------------------------------------------

_CLUSTER_REQUESTS = 100


def _cluster_setup():
    from ..cluster import ClusterConfig, ClusterPlatform, steady_requests
    from ..cluster import FLEET_SUITE
    from ..core.toss import TossConfig
    from ..faults.plan import FaultPlan, HostFaultSpec

    return {
        "ClusterConfig": ClusterConfig,
        "ClusterPlatform": ClusterPlatform,
        "FLEET_SUITE": FLEET_SUITE,
        "steady_requests": steady_requests,
        "TossConfig": TossConfig,
        "FaultPlan": FaultPlan,
        "HostFaultSpec": HostFaultSpec,
    }


def _cluster_run_fleet(mods, *, plan_hosts: int):
    plan = None
    if plan_hosts:
        plan = mods["FaultPlan"](
            hosts=tuple(
                mods["HostFaultSpec"](host=h, crash_windows=((2.0, 6.0),))
                for h in range(plan_hosts)
            )
        )
    cluster = mods["ClusterPlatform"](
        mods["ClusterConfig"](n_hosts=4, replication_factor=2),
        toss_cfg=mods["TossConfig"](
            convergence_window=3, min_profiling_invocations=3
        ),
        plan=plan,
    )
    cluster.deploy_fleet(list(mods["FLEET_SUITE"]))
    cluster.serve(
        mods["steady_requests"](
            n_requests=_CLUSTER_REQUESTS, duration_s=8.0
        )
    )
    return cluster.availability()


def _cluster_c100_run(mods):
    # Fault-free fleet serving: the pure routing/serving overhead.
    return _cluster_run_fleet(mods, plan_hosts=0)


def _cluster_chaos_run(mods):
    # Two hosts crash mid-stream: kills, re-dispatch, re-placement and
    # the fleet ladder all on the hot path.
    return _cluster_run_fleet(mods, plan_hosts=2)


def _scrub_fleet_setup():
    from ..cluster import ClusterConfig, ClusterPlatform, steady_requests
    from ..cluster import FLEET_SUITE
    from ..core.toss import TossConfig
    from ..durability import ScrubConfig
    from ..faults.plan import BitRotSpec, FaultPlan

    return {
        "ClusterConfig": ClusterConfig,
        "ClusterPlatform": ClusterPlatform,
        "FLEET_SUITE": FLEET_SUITE,
        "steady_requests": steady_requests,
        "TossConfig": TossConfig,
        "ScrubConfig": ScrubConfig,
        "BitRotSpec": BitRotSpec,
        "FaultPlan": FaultPlan,
    }


def _scrub_fleet_run(mods):
    # The durability plane end to end: at-rest aging at every fleet
    # maintenance event, scrub passes on the event loop (token-bucket
    # contention against restores) and chunk repair from replicas.
    plan = mods["FaultPlan"](
        bitrot=mods["BitRotSpec"](
            ssd_rate_per_page_s=2e-5,
            pmem_rate_per_page_s=1e-5,
            latent_sector_rate_per_s=0.2,
            torn_write_rate=0.2,
        )
    )
    cluster = mods["ClusterPlatform"](
        mods["ClusterConfig"](n_hosts=4, replication_factor=2),
        toss_cfg=mods["TossConfig"](
            convergence_window=3, min_profiling_invocations=3
        ),
        plan=plan,
        scrub=mods["ScrubConfig"](interval_s=1.0, ops_per_page=0.25),
    )
    cluster.deploy_fleet(list(mods["FLEET_SUITE"]))
    cluster.serve(
        mods["steady_requests"](
            n_requests=_CLUSTER_REQUESTS, duration_s=8.0
        )
    )
    assert cluster.durability is not None
    if cluster.durability.unaccounted():
        raise AssertionError("durability ledger out of balance")
    return cluster.durability.summary()["scrub_chunks"]


KERNELS: tuple[BenchKernel, ...] = (
    BenchKernel(
        name="fig9_c100",
        description="Figure 9 sweep, one function, C=100 (4 systems)",
        setup=_fig9_setup,
        run=_fig9_run_at(100),
        ops=400,
    ),
    BenchKernel(
        name="fig9_c1000",
        description="Figure 9 sweep, one function, C=1000 (4 systems)",
        setup=_fig9_setup,
        run=_fig9_run_at(1000),
        ops=4000,
        tags=("smoke",),
    ),
    BenchKernel(
        name="fleet_study",
        description="Fleet packing/billing study (Table I + extended)",
        setup=_fleet_setup,
        run=_fleet_run,
        ops=14,
        # The slowest kernel in the suite: smoke-tagged (and gated in CI
        # with --check) since the batch fast path made it affordable —
        # it drifted ~18s -> 25.5s across two PRs while ungated.
        tags=("smoke",),
    ),
    BenchKernel(
        name="damon_profile_suite",
        description="DAMON profiling, 4 passes over each Table I function",
        setup=_damon_setup,
        run=_damon_run,
        ops=_DAMON_PASSES * 10,
        tags=("smoke",),
    ),
    BenchKernel(
        name="contention_solve",
        description="Cold contention fixed points (fresh model per run)",
        setup=_synthetic_demands,
        run=_solve_cold_run,
        ops=_SOLVE_BATCHES,
        tags=("smoke",),
    ),
    BenchKernel(
        name="contention_solve_repeat",
        description="Identical waves re-solved on one model (memoization)",
        setup=_solve_repeat_setup,
        run=_solve_repeat_run,
        ops=_SOLVE_BATCHES,
        tags=("smoke",),
    ),
    BenchKernel(
        name="cluster_c100",
        description="Fault-free 4-host cluster serving 100 requests",
        setup=_cluster_setup,
        run=_cluster_c100_run,
        ops=_CLUSTER_REQUESTS,
        tags=("smoke",),
    ),
    BenchKernel(
        name="cluster_chaos",
        description="4-host cluster, 2 hosts crash mid-stream (rf=2)",
        setup=_cluster_setup,
        run=_cluster_chaos_run,
        ops=_CLUSTER_REQUESTS,
    ),
    BenchKernel(
        name="tco_frontier",
        description="TCO-vs-slowdown frontier sweep (4 configs x 3 budgets)",
        setup=_tco_setup,
        run=_tco_run,
        ops=len(_TCO_THRESHOLDS) * 4,
        tags=("smoke",),
    ),
    BenchKernel(
        name="scrub_fleet",
        description="4-host cluster under bit-rot with 1s scrub cadence",
        setup=_scrub_fleet_setup,
        run=_scrub_fleet_run,
        ops=_CLUSTER_REQUESTS,
    ),
)


def kernels_matching(filter_expr: str = "") -> list[BenchKernel]:
    """Kernels whose name or tags contain ``filter_expr`` (all if empty)."""
    if not filter_expr:
        return list(KERNELS)
    needle = filter_expr.lower()
    return [
        k
        for k in KERNELS
        if needle in k.name.lower() or any(needle in t for t in k.tags)
    ]
