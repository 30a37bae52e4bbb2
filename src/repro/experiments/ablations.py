"""Ablations of TOSS's design choices (DESIGN.md section 5).

Not figures from the paper, but the knobs its design sections argue for:
the bin count (10), the convergence window (100), the region-merge
threshold (<100 accesses), and the fast/slow cost ratio (2.5).
"""

from __future__ import annotations


import numpy as np

from ..core.analysis import MIN_REGION_PAGES, ProfilingAnalyzer
from ..functions import get_function
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem, TierSpec
from ..profiling.damon import DamonProfiler
from ..profiling.unified import UnifiedAccessPattern
from ..report import Table
from ..vm.vmm import VMM

__all__ = [
    "ablate_bin_count",
    "ablate_merge_tolerance",
    "ablate_cost_ratio",
    "ablate_convergence_window",
    "ablate_memory_technology",
    "ablate_pack_mode",
    "keepalive_synergy",
]


def _profiled_pattern(function_name: str) -> tuple:
    """Profile one function across all inputs over 12 invocations;
    returns (func, pattern)."""
    invocations, seed = 12, 42
    func = get_function(function_name)
    vmm = VMM()
    damon = DamonProfiler(func.n_pages, rng=np.random.default_rng(seed))
    pattern = UnifiedAccessPattern(func.n_pages, convergence_window=4)
    for i in range(invocations):
        boot = vmm.boot_and_run(func, i % func.n_inputs, seed + i)
        snap = damon.profile(boot.execution.epoch_records)
        if i == 0:
            continue
        pattern.update(snap)
    return func, pattern


def ablate_bin_count(
    function_name: str = "matmul",
    bin_counts: tuple[int, ...] = (2, 5, 10, 20, 40),
) -> Table:
    """How the number of bins changes cost and placement granularity."""
    func, pattern = _profiled_pattern(function_name)
    trace = func.trace(3, 999)
    table = Table(
        f"Ablation: bin count ({function_name})",
        ["bins", "cost", "slowdown", "slow %", "mappings"],
    )
    for n_bins in bin_counts:
        analyzer = ProfilingAnalyzer(n_bins=n_bins)
        res = analyzer.analyze(pattern, trace)
        from ..vm.layout import MemoryLayout

        mappings = MemoryLayout.from_placement(res.placement).n_mappings
        table.add_row(
            n_bins, res.cost, res.expected_slowdown,
            100.0 * res.slow_fraction, mappings,
        )
    return table


def ablate_merge_tolerance(function_name: str = "linpack") -> Table:
    """Section V-F's access-count merge threshold vs mapping count."""
    func, pattern = _profiled_pattern(function_name)
    trace = func.trace(3, 999)
    table = Table(
        f"Ablation: region merge tolerance ({function_name})",
        ["tolerance", "regions", "cost", "slowdown", "mappings"],
    )
    for tol in (0.0, 10.0, 100.0, 1000.0):
        analyzer = ProfilingAnalyzer(merge_tolerance=tol)
        regions = pattern.regions(
            merge_tolerance=tol, min_region_pages=MIN_REGION_PAGES
        )
        res = analyzer.analyze(pattern, trace)
        from ..vm.layout import MemoryLayout

        mappings = MemoryLayout.from_placement(res.placement).n_mappings
        table.add_row(
            tol, len(regions), res.cost, res.expected_slowdown, mappings
        )
    return table


def ablate_cost_ratio(
    function_name: str = "pagerank",
    ratios: tuple[float, ...] = (1.5, 2.0, 2.5, 4.0, 8.0),
) -> Table:
    """How the fast/slow price ratio moves the minimum-cost placement.

    Higher ratios make the slow tier relatively cheaper, so more memory
    offloads despite the slowdown.
    """
    func, pattern = _profiled_pattern(function_name)
    trace = func.trace(3, 999)
    table = Table(
        f"Ablation: fast/slow cost ratio ({function_name})",
        ["ratio", "optimal cost", "cost", "slowdown", "slow %"],
    )
    base = DEFAULT_MEMORY_SYSTEM
    for ratio in ratios:
        fast = TierSpec(
            name=base.fast.name,
            load_latency_s=base.fast.load_latency_s,
            store_latency_s=base.fast.store_latency_s,
            bandwidth_bps=base.fast.bandwidth_bps,
            access_bytes=base.fast.access_bytes,
            cost_per_mb=ratio,
            random_penalty=base.fast.random_penalty,
        )
        memory = MemorySystem(fast=fast, slow=base.slow)
        analyzer = ProfilingAnalyzer(memory)
        res = analyzer.analyze(pattern, trace)
        table.add_row(
            ratio,
            memory.optimal_normalized_cost,
            res.cost,
            res.expected_slowdown,
            100.0 * res.slow_fraction,
        )
    return table


def ablate_memory_technology(
    function_name: str = "matmul",
) -> Table:
    """Run the pipeline over every memory-technology pairing.

    Section III/VII-B: TOSS is designed for any fast/slow combination —
    DDR5+CXL, GPU HBM+DRAM, DRAM+NVMe — with the cost formula adapted per
    pairing.  The placement shifts with each technology's latency and
    price ratios.
    """
    from ..memsim.presets import ALL_PRESETS

    func, pattern = _profiled_pattern(function_name)
    trace = func.trace(3, 999)
    table = Table(
        f"Ablation: memory technology pairings ({function_name})",
        ["pairing", "lat ratio", "price ratio", "optimal", "cost",
         "slowdown", "slow %"],
    )
    for name, system in ALL_PRESETS.items():
        analyzer = ProfilingAnalyzer(system)
        res = analyzer.analyze(pattern, trace)
        table.add_row(
            name,
            system.latency_ratio(),
            system.cost_ratio,
            system.optimal_normalized_cost,
            res.cost,
            res.expected_slowdown,
            100.0 * res.slow_fraction,
        )
    return table


def ablate_pack_mode(
    function_name: str = "pagerank",
) -> Table:
    """Quantile (density-homogeneous) vs greedy (weight-balanced) binning.

    The paper packs regions with the ``binpacking`` heuristic; our default
    sorts by access density first so bins stay homogeneous.  This ablation
    measures what that choice is worth.
    """
    func, pattern = _profiled_pattern(function_name)
    trace = func.trace(3, 999)
    table = Table(
        f"Ablation: bin packing mode ({function_name})",
        ["mode", "cost", "slowdown", "slow %"],
    )
    for mode in ("quantile", "greedy"):
        res = ProfilingAnalyzer(pack_mode=mode).analyze(pattern, trace)
        table.add_row(
            mode, res.cost, res.expected_slowdown, 100.0 * res.slow_fraction
        )
    return table


def keepalive_synergy() -> Table:
    """How many of six functions a 512 MB DRAM budget keeps warm, with
    and without tiered snapshots (Section VI-A: caching composes with
    TOSS).

    A DRAM-only keep-alive pins each function's full guest memory; TOSS
    pins only the fast fraction, so the same budget holds several times
    more warm VMs.
    """
    from ..functions import get_function
    from ..platform.keepalive import KeepAliveCache
    from .common import ALL_INPUTS, toss_cached

    function_names = (
        "float_operation",
        "pyaes",
        "json_load_dump",
        "image_processing",
        "matmul",
        "linpack",
    )
    dram_budget_mb = 512.0
    table = Table(
        f"Keep-alive synergy: warm functions in a {dram_budget_mb:.0f} MB "
        "DRAM budget",
        ["policy", "warm functions", "DRAM used MB"],
        precision=1,
    )
    for policy in ("dram-only", "toss-tiered"):
        cache = KeepAliveCache(dram_budget_mb)
        for name in function_names:
            func = get_function(name)
            if policy == "dram-only":
                fast_mb = float(func.guest_mb)
            else:
                system = toss_cached(name, ALL_INPUTS)
                fast_mb = max(
                    1e-3, func.guest_mb * (1.0 - system.slow_fraction)
                )
            cache.admit(name, fast_mb=fast_mb, init_cost_s=0.2)
        table.add_row(policy, len(cache.warm_functions), cache.used_mb)
    return table


def ablate_convergence_window(function_name: str = "json_load_dump") -> Table:
    """Profiling length (at most 200 invocations) vs stability as the
    convergence window grows."""
    max_invocations, seed = 200, 4242
    func = get_function(function_name)
    vmm = VMM()
    table = Table(
        f"Ablation: convergence window ({function_name})",
        ["window", "profiling invocations", "converged"],
    )
    for window in (2, 5, 10, 25):
        damon = DamonProfiler(func.n_pages, rng=np.random.default_rng(seed))
        pattern = UnifiedAccessPattern(func.n_pages, convergence_window=window)
        used = 0
        for i in range(max_invocations):
            boot = vmm.boot_and_run(func, i % func.n_inputs, seed + i)
            snap = damon.profile(boot.execution.epoch_records)
            used += 1
            if i == 0:
                continue
            pattern.update(snap)
            if pattern.converged:
                break
        table.add_row(window, used, pattern.converged)
    return table
