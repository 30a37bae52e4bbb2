"""The microVM: a guest address space and its tiering state.

A :class:`MicroVM` is a guest address space with three per-page properties:

* **placement** — which memory tier serves the page's LLC misses;
* **backing** — where the page comes from on first touch (already resident,
  anonymous zero page, SSD-backed file mapping, DAX-mapped slow-tier file,
  fast-tier file copied out of persistent memory, or REAP's
  userfaultfd-served path);
* **residency** — whether first touch already happened.

:meth:`MicroVM.execute` replays an :class:`~repro.trace.events.InvocationTrace`
against that state, charging tier access latencies and page-fault costs to
simulated time, and returns both perf-style counters and the resource
demand vector used by the Figure 9 contention model.  It is the one-trace
case of the simulator's one execute engine,
:func:`repro.sim.batchexec.execute_cohort`: the VM's residency, page
versions and host page cache carry the execution's effects into the next
call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .. import config
from ..errors import VMError
from ..memsim.accounting import PerfCounters
from ..memsim.bandwidth import TierDemand
from ..memsim.page_cache import HostPageCache
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem, Tier
from ..obs import runtime as obs_runtime
from ..sim import batchexec
from ..trace.events import InvocationTrace

__all__ = ["Backing", "EpochRecord", "ExecutionResult", "MicroVM"]


class Backing(enum.IntEnum):
    """Where a non-resident page is served from on first touch."""

    RESIDENT = 0
    """Already mapped and populated: no fault at all."""

    ZERO = 1
    """Anonymous memory: minor fault installs a zero page."""

    SSD_FILE = 2
    """mmap of a snapshot file on the SSD: major fault unless the host page
    cache (with readahead) already holds the page."""

    DAX_SLOW = 3
    """DAX mapping of the slow-tier snapshot file: minor fault, no I/O."""

    PMEM_COPY = 4
    """Fast-tier snapshot file kept in persistent memory: first touch
    copies the 4 KiB page into DRAM."""

    UFFD_SSD = 5
    """REAP's userfaultfd path: the VMM handler reads the page from the
    SSD.  Bypasses kernel readahead and contends on handler capacity."""

    COMPRESSED_POOL = 6
    """zswap/zram-style software pool: minor fault decompresses the page
    out of the compressed region of DRAM (no storage I/O).  The page's
    placement names the compressed tier whose codec is charged."""


@dataclass(frozen=True)
class EpochRecord:
    """What actually happened during one executed epoch (profiler food)."""

    duration_s: float
    pages: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one :meth:`MicroVM.execute` call."""

    counters: PerfCounters
    demand: TierDemand
    epoch_records: tuple[EpochRecord, ...]
    label: str = ""

    @property
    def time_s(self) -> float:
        """Uncontended end-to-end execution time."""
        return self.counters.total_time_s


def _observe_execute(vm_label: str, result: ExecutionResult) -> None:
    """Trace and meter one execution when observation is active.

    The execution becomes an ``execute`` span of its uncontended time at
    the tracer's cursor, plus one sample of the execute-time histogram.
    :meth:`MicroVM.execute` calls it as it returns, and
    :meth:`~repro.baselines.base.ServerlessSystem.invoke_batch` calls it
    per invocation from the cohort's results, so the emitted spans and
    metrics do not depend on how the executions were batched.  A no-op
    unless an observation is activated.
    """
    obs = obs_runtime.active()
    if obs is None:
        return
    obs.tracer.record(
        "execute",
        result.time_s,
        attrs={
            "vm": vm_label,
            "trace": result.label,
            "fast_accesses": result.counters.fast_accesses,
            "slow_accesses": result.counters.slow_accesses,
        },
    )
    obs.metrics.histogram(
        "toss_execute_seconds",
        "Uncontended guest execution time per invocation",
    ).observe(result.time_s)


class MicroVM:
    """A Firecracker-style guest with page-granular tiering state."""

    def __init__(
        self,
        n_pages: int,
        *,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        placement: np.ndarray | None = None,
        backing: np.ndarray | None = None,
        page_versions: np.ndarray | None = None,
        label: str = "",
    ) -> None:
        if n_pages <= 0:
            raise VMError("guest must have at least one page")
        self.n_pages = int(n_pages)
        self.memory = memory
        self.label = label
        self.placement = self._own(placement, np.uint8, int(Tier.FAST))
        top = int(self.placement.max())
        if top >= memory.n_tiers:
            raise VMError(
                f"placement references tier {top}, chain has {memory.n_tiers}"
            )
        self.backing = self._own(backing, np.uint8, int(Backing.RESIDENT))
        code = int(self.backing.max())
        if code > max(Backing):
            raise VMError(f"backing code {code} is not a Backing kind")
        self.page_versions = self._own(page_versions, np.uint64, 0)
        self._resident = self.backing == int(Backing.RESIDENT)
        self.page_cache: HostPageCache | None = None
        if np.any(self.backing == int(Backing.SSD_FILE)):
            self.page_cache = HostPageCache(
                self.n_pages, readahead_pages=config.READAHEAD_PAGES
            )

    def _own(self, arr: np.ndarray | None, dtype, fill) -> np.ndarray:
        if arr is None:
            return np.full(self.n_pages, fill, dtype=dtype)
        arr = np.asarray(arr, dtype=dtype)
        if arr.shape != (self.n_pages,):
            raise VMError(
                f"per-page array shape {arr.shape} does not match guest of "
                f"{self.n_pages} pages"
            )
        return arr.copy()

    # -- queries ---------------------------------------------------------------

    def tier_pages(self, tier: Tier | int) -> int:
        """Guest pages placed in a tier."""
        return int(np.count_nonzero(self.placement == int(tier)))

    @property
    def slow_fraction(self) -> float:
        """Fraction of guest memory placed in the slow tier."""
        return self.tier_pages(Tier.SLOW) / self.n_pages

    # -- execution ------------------------------------------------------------------

    def execute(self, trace: InvocationTrace) -> ExecutionResult:
        """Replay a trace, charging tier latencies and fault costs.

        Residency is sticky across calls (a second execute on the same VM
        runs warm); use :meth:`reset_residency` between cold runs.  This
        runs the kernel of :func:`repro.sim.batchexec.execute_cohort` on
        one trace, which executes on this VM (cohorts alone enter the
        ``sim/execute_cohort`` profiling phase); the execution is traced
        and metered as it returns when observation is active.
        """
        [result] = batchexec._execute_cohort(self, [trace])
        _observe_execute(self.label, result)
        return result
