"""N-tier extension bench: what a third tier buys over the paper's two.

Not a paper figure — the future-work extension quantified: for a set of
suite functions, compare the two-tier minimum cost (DRAM+PMEM, the
paper's platform) against three-tier chains searched by
:func:`repro.core.tiering.search_tier_placement` within Section V-C's
slowdown budget.
"""

import numpy as np

from repro.core.analysis import ProfilingAnalyzer
from repro.core.tiering import search_tier_placement
from repro.functions import get_function
from repro.memsim.presets import CXL_DDR4_SPEC, NVME_AS_MEMORY_SPEC
from repro.memsim.tiers import DRAM_SPEC, PMEM_SPEC, MemorySystem
from repro.profiling import DamonProfiler, UnifiedAccessPattern
from repro.report import Table
from repro.vm.vmm import VMM

FUNCTIONS = ("matmul", "lr_serving", "json_load_dump", "image_processing")
BUDGET = 0.30
"""Slowdown budget of the three-tier searches (Section V-C's knob)."""

DRAM_CXL_NVME = MemorySystem(
    fast=DRAM_SPEC, middle=(CXL_DDR4_SPEC,), slow=NVME_AS_MEMORY_SPEC
)
DRAM_PMEM_NVME = MemorySystem(
    fast=DRAM_SPEC, middle=(PMEM_SPEC,), slow=NVME_AS_MEMORY_SPEC
)


def _pattern(func, seed=1, invocations=10):
    vmm = VMM()
    damon = DamonProfiler(func.n_pages, rng=np.random.default_rng(seed))
    pattern = UnifiedAccessPattern(func.n_pages, convergence_window=5)
    for i in range(invocations):
        boot = vmm.boot_and_run(func, 3, i)
        snap = damon.profile(boot.execution.epoch_records)
        if i == 0:
            continue
        pattern.update(snap)
    return pattern


def _run() -> Table:
    table = Table(
        f"Extension: 2-tier (paper) vs 3-tier minimum cost, "
        f"slowdown budget {BUDGET:.2f}",
        ["function", "2-tier cost", "dram+pmem+nvme", "pmem SD",
         "dram+cxl+nvme", "cxl SD", "cxl dram %"],
    )
    for name in FUNCTIONS:
        func = get_function(name)
        pattern = _pattern(func)
        trace = func.trace(3, 999)
        two = ProfilingAnalyzer().analyze(pattern, trace)
        pmem3 = search_tier_placement(
            pattern, trace, DRAM_PMEM_NVME, slowdown_threshold=BUDGET
        )
        cxl3 = search_tier_placement(
            pattern, trace, DRAM_CXL_NVME, slowdown_threshold=BUDGET
        )
        table.add_row(
            name,
            two.cost,
            pmem3.cost,
            pmem3.slowdown,
            cxl3.cost,
            cxl3.slowdown,
            100.0 * cxl3.tier_fractions[0],
        )
    return table


def test_multitier_extension(benchmark, emit):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit("extension_multitier", table.render())

    for row in table.rows:
        two_tier, pmem3, cxl3 = row[1], row[2], row[4]
        # A richer chain never costs more than the paper's two tiers.
        assert pmem3 <= two_tier + 1e-9
        assert cxl3 <= two_tier + 1e-9
        # And the slowdown stays in the acceptable band.
        assert row[3] < 1.30
        assert row[5] < 1.30
