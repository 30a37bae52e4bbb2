"""The microVM execution engine.

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
demand vector used by the Figure 9 contention model.
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
    Shared by both engines: :meth:`MicroVM.execute` calls it as it
    returns, and the batch path calls it per invocation from the cohort's
    results, so the emitted spans and metrics do not depend on which
    engine ran.  A no-op unless an observation is activated.
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
        page_cache: HostPageCache | None = None,
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
        self.page_versions = self._own(page_versions, np.uint64, 0)
        self._resident = self.backing == int(Backing.RESIDENT)
        needs_cache = bool(np.any(self.backing == int(Backing.SSD_FILE)))
        if page_cache is None and needs_cache:
            page_cache = HostPageCache(
                self.n_pages, readahead_pages=config.READAHEAD_PAGES
            )
        self.page_cache = page_cache

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

    @property
    def resident_pages(self) -> int:
        """Pages whose first touch already happened."""
        return int(self._resident.sum())

    def tier_pages(self, tier: Tier | int) -> int:
        """Guest pages placed in a tier."""
        return int(np.count_nonzero(self.placement == int(tier)))

    @property
    def slow_fraction(self) -> float:
        """Fraction of guest memory placed in the slow tier."""
        return self.tier_pages(Tier.SLOW) / self.n_pages

    # -- lifecycle ----------------------------------------------------------------

    def reset_residency(self) -> None:
        """Forget all first touches (fresh cold start of the same VM) and
        drop the host page cache, as the evaluation does between
        invocations (Section VI-A)."""
        self._resident = self.backing == int(Backing.RESIDENT)
        if self.page_cache is not None:
            self.page_cache.drop()

    # -- execution ------------------------------------------------------------------

    def execute(self, trace: InvocationTrace) -> ExecutionResult:
        """Replay a trace, charging tier latencies and fault costs.

        Residency is sticky across calls (a second execute on the same VM
        runs warm); use :meth:`reset_residency` between cold runs.

        One loop serves every chain: each epoch's accesses are tallied per
        tier id (0 fast, 1 slow, ``2 + i`` middle tier ``i``), and a
        two-tier system is simply the chain without middle tiers.  Middle
        tiers are software pools resident in the fast tier's silicon, so
        their stall time and (ratio-scaled) physical bytes are charged to
        the fast resource for contention purposes, while the slow tier
        keeps its own read/write operation accounting.
        """
        if trace.n_pages != self.n_pages:
            raise VMError(
                f"trace for {trace.n_pages}-page guest executed on "
                f"{self.n_pages}-page VM"
            )
        counters = PerfCounters()
        records: list[EpochRecord] = []
        # Resolve tier specs through the memory system so an active fault
        # hook (slow-tier backpressure) is reflected in this execution.
        slow = self.memory.spec(Tier.SLOW)
        fast = self.memory.spec(Tier.FAST)
        middle = self.memory.middle
        # Physical bytes moved per logical access on each middle tier:
        # compressed pools move access_bytes / ratio over the DRAM bus.
        mid_bytes = [
            m.access_bytes / getattr(m, "effective_capacity_multiplier", 1.0)
            for m in middle
        ]

        fast_bytes = 0.0
        slow_read_ops = 0.0
        slow_write_ops = 0.0
        slow_read_stall = 0.0
        slow_write_stall = 0.0
        ssd_ops = 0.0
        uffd_ops = 0.0
        ssd_stall = 0.0
        uffd_stall = 0.0
        soft_fault = 0.0  # minor + copy faults: CPU-side, never contended

        for epoch in trace.epochs:
            pages, counts = epoch.pages, epoch.counts
            duration = epoch.cpu_time_s
            counters.cpu_time_s += epoch.cpu_time_s
            if pages.size:
                faults = self._fault_in(pages, counters)
                soft_fault += faults["soft_s"]
                ssd_stall += faults["ssd_s"]
                uffd_stall += faults["uffd_s"]
                ssd_ops += faults["ssd_ops"]
                uffd_ops += faults["uffd_ops"]
                duration += faults["soft_s"] + faults["ssd_s"] + faults["uffd_s"]

                # Exact integer access tallies per tier id; the fast tier
                # takes whatever no other tier claims.
                tiers = self.placement[pages]
                n_slow = int(counts[tiers == int(Tier.SLOW)].sum())
                e_mid_stall = 0.0
                n_mid = 0
                for i, spec in enumerate(middle):
                    n_i = int(counts[tiers == 2 + i].sum())
                    if not n_i:
                        continue
                    n_mid += n_i
                    e_mid_stall += n_i * spec.effective_access_latency_s(
                        epoch.random_fraction, epoch.store_fraction
                    )
                    fast_bytes += n_i * mid_bytes[i]
                n_fast = int(counts.sum()) - n_slow - n_mid

                lat_fast = fast.effective_access_latency_s(
                    epoch.random_fraction, epoch.store_fraction
                )
                lat_slow_read = slow.effective_load_latency_s(epoch.random_fraction)
                reads = n_slow * (1.0 - epoch.store_fraction)
                writes = n_slow * epoch.store_fraction

                e_fast_stall = n_fast * lat_fast
                e_read_stall = reads * lat_slow_read
                e_write_stall = writes * slow.store_latency_s
                duration += e_fast_stall + e_read_stall + e_write_stall
                duration += e_mid_stall

                counters.fast_accesses += n_fast + n_mid
                counters.slow_accesses += n_slow
                counters.fast_stall_s += e_fast_stall + e_mid_stall
                counters.slow_stall_s += e_read_stall + e_write_stall
                fast_bytes += n_fast * fast.access_bytes
                slow_read_ops += reads
                slow_write_ops += writes
                slow_read_stall += e_read_stall
                slow_write_stall += e_write_stall

                # Stores dirty the touched pages (content versioning).
                if epoch.store_fraction > 0:
                    self.page_versions[pages] += 1

            records.append(EpochRecord(duration, pages, counts))

        demand = TierDemand(
            cpu_time_s=counters.cpu_time_s + soft_fault,
            fast_stall_s=counters.fast_stall_s,
            fast_bytes=fast_bytes,
            slow_read_stall_s=slow_read_stall,
            slow_read_ops=slow_read_ops,
            slow_write_stall_s=slow_write_stall,
            slow_write_ops=slow_write_ops,
            ssd_stall_s=ssd_stall,
            ssd_ops=ssd_ops,
            uffd_stall_s=uffd_stall,
            uffd_ops=uffd_ops,
        )
        result = ExecutionResult(
            counters=counters,
            demand=demand,
            epoch_records=tuple(records),
            label=trace.label,
        )
        _observe_execute(self.label, result)
        return result

    # -- fault handling -----------------------------------------------------------

    def _fault_in(self, pages: np.ndarray, counters: PerfCounters) -> dict:
        """Serve first touches among ``pages``; returns cost breakdown.

        ``soft_s`` is CPU-side fault work (minor faults, PMEM page copies),
        ``ssd_s``/``uffd_s`` are stalls on the SSD / the userfaultfd
        handler, with the matching operation counts for contention.
        """
        new = pages[~self._resident[pages]]
        out = {"soft_s": 0.0, "ssd_s": 0.0, "uffd_s": 0.0, "ssd_ops": 0.0, "uffd_ops": 0.0}
        if new.size == 0:
            return out
        kinds = self.backing[new]

        n_zero = int(np.count_nonzero(kinds == int(Backing.ZERO)))
        n_dax = int(np.count_nonzero(kinds == int(Backing.DAX_SLOW)))
        n_copy = int(np.count_nonzero(kinds == int(Backing.PMEM_COPY)))
        n_uffd = int(np.count_nonzero(kinds == int(Backing.UFFD_SSD)))
        ssd_pages = new[kinds == int(Backing.SSD_FILE)]

        out["soft_s"] += (n_zero + n_dax) * config.MINOR_FAULT_LATENCY_S
        out["soft_s"] += n_copy * config.PMEM_COPY_FAULT_LATENCY_S
        counters.minor_faults += n_zero + n_dax + n_copy

        cpool_mask = kinds == int(Backing.COMPRESSED_POOL)
        if np.any(cpool_mask):
            # CPU-side decompression out of the software pool: a minor
            # fault plus the placed tier's per-page codec latency.
            pool_tiers = self.placement[new[cpool_mask]]
            n_pool = int(pool_tiers.size)
            out["soft_s"] += n_pool * config.MINOR_FAULT_LATENCY_S
            per_id = np.bincount(
                pool_tiers, minlength=2 + len(self.memory.middle)
            )
            for tid, count in enumerate(per_id):
                if not count:
                    continue
                point = getattr(
                    self.memory.spec(tid), "compression", None
                )
                if point is not None:
                    out["soft_s"] += (
                        int(count) * point.decompress_page_latency_s
                    )
            counters.minor_faults += n_pool

        if n_uffd:
            out["uffd_s"] += n_uffd * config.UFFD_FAULT_LATENCY_S
            out["uffd_ops"] += n_uffd
            out["ssd_ops"] += n_uffd
            counters.major_faults += n_uffd

        if ssd_pages.size:
            if self.page_cache is None:
                self.page_cache = HostPageCache(
                    self.n_pages, readahead_pages=config.READAHEAD_PAGES
                )
            misses = self.page_cache.fault_in(ssd_pages)
            hits = int(ssd_pages.size) - misses
            out["ssd_s"] += misses * config.MAJOR_FAULT_LATENCY_S
            out["soft_s"] += hits * config.MINOR_FAULT_LATENCY_S
            out["ssd_ops"] += misses
            counters.major_faults += misses
            counters.minor_faults += hits

        counters.fault_stall_s += out["soft_s"] + out["ssd_s"] + out["uffd_s"]
        self._resident[new] = True
        return out
