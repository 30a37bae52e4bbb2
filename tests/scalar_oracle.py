"""The scalar execute loop, kept as the reference for the batch kernel.

:func:`scalar_execute` replays one trace epoch by epoch against a
:class:`~repro.vm.microvm.MicroVM`'s state, exactly as
``MicroVM.execute`` did before it became the one-trace case of
:func:`repro.sim.batchexec.execute_cohort`: it reads and writes the VM's
residency, page versions and host page cache, and emits the same
execute span and histogram sample.  Every bit-identity property compares
the kernel against this loop; nothing in ``src/`` runs it.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.errors import VMError
from repro.memsim.accounting import PerfCounters
from repro.memsim.bandwidth import TierDemand
from repro.memsim.page_cache import HostPageCache
from repro.memsim.tiers import Tier
from repro.trace.events import InvocationTrace
from repro.vm.microvm import (
    Backing,
    EpochRecord,
    ExecutionResult,
    MicroVM,
    _observe_execute,
)

__all__ = ["scalar_execute"]


def scalar_execute(vm: MicroVM, trace: InvocationTrace) -> ExecutionResult:
    """Replay a trace, charging tier latencies and fault costs.

    Residency is sticky across calls (a second execute on the same VM
    runs warm); build a fresh VM for each cold run.

    One loop serves every chain: each epoch's accesses are tallied per
    tier id (0 fast, 1 slow, ``2 + i`` middle tier ``i``), and a
    two-tier system is simply the chain without middle tiers.  Middle
    tiers are software pools resident in the fast tier's silicon, so
    their stall time and (ratio-scaled) physical bytes are charged to
    the fast resource for contention purposes, while the slow tier
    keeps its own read/write operation accounting.
    """
    if trace.n_pages != vm.n_pages:
        raise VMError(
            f"trace for {trace.n_pages}-page guest executed on "
            f"{vm.n_pages}-page VM"
        )
    counters = PerfCounters()
    records: list[EpochRecord] = []
    # Resolve tier specs through the memory system so an active fault
    # hook (slow-tier backpressure) is reflected in this execution.
    slow = vm.memory.spec(Tier.SLOW)
    fast = vm.memory.spec(Tier.FAST)
    middle = vm.memory.middle
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
            faults = _fault_in(vm, pages, counters)
            soft_fault += faults["soft_s"]
            ssd_stall += faults["ssd_s"]
            uffd_stall += faults["uffd_s"]
            ssd_ops += faults["ssd_ops"]
            uffd_ops += faults["uffd_ops"]
            duration += faults["soft_s"] + faults["ssd_s"] + faults["uffd_s"]

            # Exact integer access tallies per tier id; the fast tier
            # takes whatever no other tier claims.
            tiers = vm.placement[pages]
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
                vm.page_versions[pages] += 1

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
    _observe_execute(vm.label, result)
    return result


def _fault_in(vm: MicroVM, pages: np.ndarray, counters: PerfCounters) -> dict:
    """Serve first touches among ``pages``; returns cost breakdown.

    ``soft_s`` is CPU-side fault work (minor faults, PMEM page copies),
    ``ssd_s``/``uffd_s`` are stalls on the SSD / the userfaultfd
    handler, with the matching operation counts for contention.
    """
    new = pages[~vm._resident[pages]]
    out = {"soft_s": 0.0, "ssd_s": 0.0, "uffd_s": 0.0, "ssd_ops": 0.0, "uffd_ops": 0.0}
    if new.size == 0:
        return out
    kinds = vm.backing[new]

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
        pool_tiers = vm.placement[new[cpool_mask]]
        n_pool = int(pool_tiers.size)
        out["soft_s"] += n_pool * config.MINOR_FAULT_LATENCY_S
        per_id = np.bincount(
            pool_tiers, minlength=2 + len(vm.memory.middle)
        )
        for tid, count in enumerate(per_id):
            if not count:
                continue
            point = getattr(
                vm.memory.spec(tid), "compression", None
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
        if vm.page_cache is None:
            vm.page_cache = HostPageCache(
                vm.n_pages, readahead_pages=config.READAHEAD_PAGES
            )
        misses = vm.page_cache.fault_in(ssd_pages)
        hits = int(ssd_pages.size) - misses
        out["ssd_s"] += misses * config.MAJOR_FAULT_LATENCY_S
        out["soft_s"] += hits * config.MINOR_FAULT_LATENCY_S
        out["ssd_ops"] += misses
        counters.major_faults += misses
        counters.minor_faults += hits

    counters.fault_stall_s += out["soft_s"] + out["ssd_s"] + out["uffd_s"]
    vm._resident[new] = True
    return out
