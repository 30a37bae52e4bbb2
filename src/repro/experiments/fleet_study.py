"""Fleet-level provider study (extension).

The paper's motivation is provider economics: DRAM is 40-50 % of server
cost, and most functions barely use theirs.  This study quantifies what
TOSS buys a provider across a *fleet* — the Table I suite plus the
extended workloads — on the paper's host shape (96 GB DRAM + 768 GB
PMEM):

* packing density: identical VMs resident per host, DRAM-only vs tiered;
* fleet bill: invocation-weighted memory cost under a heavy-tailed
  request mix (most functions invoked rarely, a few hot — the
  "serverless in the wild" shape);
* fleet timeline: one sampled invocation per function, staggered on the
  event engine's open timeline, reporting which shared resource the
  mixed fleet actually leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import rng as rng_mod
from ..baselines import TossSystem
from ..functions import SUITE
from ..functions.extended import EXTENDED_SUITE
from ..platform.capacity import packing_density
from ..platform.scheduler import Scheduler
from ..pricing.billing import bill_invocation
from ..report import Table
from ..sim.contention import TimelineJob

__all__ = ["FleetResult", "run"]

HOST_FAST_MB = 96 * 1024
HOST_SLOW_MB = 768 * 1024


@dataclass(frozen=True)
class FleetResult:
    """Fleet packing and billing summary."""

    density: dict[str, tuple[int, int]]
    savings_fraction: float
    table: Table
    utilization: dict[str, dict[str, float]] = field(default_factory=dict)
    """Per-resource ``{mean_rho, peak_rho, peak_inflation}`` from the
    staggered fleet timeline on the event engine (telemetry only; the
    density and savings numbers do not depend on it)."""
    timeline_makespan_s: float = 0.0
    """Simulated span of the staggered fleet timeline."""

    @property
    def mean_density_multiplier(self) -> float:
        """Average tiered/DRAM-only packing ratio across the fleet."""
        ratios = [t / max(d, 1) for d, t in self.density.values()]
        return float(np.mean(ratios))


def run(
    *,
    include_extended: bool = True,
    requests_per_function: int = 50,
    seed: int = 11,
    function_names: list[str] | None = None,
) -> FleetResult:
    """Evaluate packing density and billing across the fleet.

    ``function_names`` restricts the fleet to a named subset (matching
    :mod:`fig7_setup_time`'s parameter) for fast regression runs.
    """
    functions = list(SUITE) + (list(EXTENDED_SUITE) if include_extended else [])
    if function_names is not None:
        functions = [f for f in functions if f.name in function_names]
    rng = rng_mod.stream(seed, "fleet")
    table = Table(
        "Fleet study: packing density and invocation-weighted savings "
        f"(host: {HOST_FAST_MB // 1024} GB DRAM + {HOST_SLOW_MB // 1024} GB slow)",
        ["function", "guest MB", "slow %", "VMs/host dram", "VMs/host tiered",
         "bill savings %"],
        precision=1,
    )
    density: dict[str, tuple[int, int]] = {}
    total_dram_bill = 0.0
    total_tiered_bill = 0.0
    jobs: list[TimelineJob] = []
    for func in functions:
        system = TossSystem(func, convergence_window=6)
        analysis = system.analysis
        d, t = packing_density(
            func.guest_mb,
            system.slow_fraction,
            host_fast_mb=HOST_FAST_MB,
            host_slow_mb=HOST_SLOW_MB,
        )
        density[func.name] = (d, t)

        # Heavy-tailed input mix: mostly small requests.
        inputs = rng.choice(4, size=requests_per_function, p=[0.5, 0.25, 0.15, 0.1])
        dram_bill = 0.0
        tiered_bill = 0.0
        for idx in inputs:
            duration = func.input_spec(int(idx)).t_dram_s
            bill = bill_invocation(
                guest_mb=func.guest_mb,
                duration_s=duration * analysis.expected_slowdown,
                slow_fraction=system.slow_fraction,
                slowdown=analysis.expected_slowdown,
            )
            dram_bill += bill.dram_cost
            tiered_bill += bill.tiered_cost
        total_dram_bill += dram_bill
        total_tiered_bill += tiered_bill
        table.add_row(
            func.name,
            func.guest_mb,
            100.0 * system.slow_fraction,
            d,
            t,
            100.0 * (1.0 - tiered_bill / dram_bill),
        )
        # One sampled tiered invocation per function, staggered so cold
        # starts overlap mid-flight on the event engine's open timeline.
        outcome = system.invoke(int(inputs[0]), len(jobs))
        jobs.append(
            TimelineJob(
                arrival_s=0.005 * len(jobs),
                demand=outcome.execution.demand,
                label=func.name,
            )
        )
    savings = 1.0 - total_tiered_bill / total_dram_bill
    utilization: dict[str, dict[str, float]] = {}
    makespan_s = 0.0
    if jobs:
        timeline = Scheduler().run_timeline(jobs)
        utilization = timeline.utilization
        makespan_s = timeline.makespan_s
    return FleetResult(
        density=density,
        savings_fraction=savings,
        table=table,
        utilization=utilization,
        timeline_makespan_s=makespan_s,
    )
