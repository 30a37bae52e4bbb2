"""Vectorized cohort execution: many invocations, one restored template.

:meth:`repro.vm.microvm.MicroVM.execute` replays one trace epoch by
epoch.  A synchronized arrival cohort (Figure 9's C concurrent cold
starts) replays *C* traces against *identical* restored state — same
placement, same backing, fresh residency each — so the per-epoch scalar
arithmetic can be laid out flat and computed with NumPy over the whole
cohort at once.  :func:`execute_cohort` does exactly that, for any
:class:`~repro.memsim.tiers.MemorySystem` chain, and is **bit-identical**
to the scalar loop:

* Every float is produced by the same IEEE-754 operation sequence the
  scalar engine performs — elementwise vectorized ops replicate scalar
  ops exactly, and the per-invocation accumulators are folded with
  :func:`~repro.sim.batch.segment_fold_left` (a true sequential left
  fold, not a pairwise reduction).  That includes ``fast_bytes`` on a
  chain with middle tiers, whose per-epoch terms (middle tiers in chain
  order, then the fast tier) are not integers.
* Per-epoch integer tallies (accesses per tier id, fault-kind counts,
  compressed-pool faults per tier id) are order-independent and exact,
  so they use ``np.add.reduceat`` over the non-empty epoch segments (the
  empty ones contribute nothing and are masked out, as ``reduceat``
  mishandles zero-length segments) and one ``np.bincount`` over each
  trace's first-touch pages.  Both run trace by trace over the trace's
  own read-only columns
  (:attr:`~repro.trace.events.InvocationTrace.pages`/``counts``), so the
  engine never copies a trace or builds a cohort-wide page column.
* An epoch with no pages contributes exact zeros everywhere, and
  ``x + 0.0 == x`` for the non-negative accumulators involved, so the
  scalar engine's ``if pages.size:`` and ``if count:`` guards need no
  special-casing.

The engine emits no spans or metrics: callers that run it under an
active observation emit each invocation's execute span from its result
with the scalar engine's own emitter
(:func:`repro.vm.microvm._observe_execute`).  The fast path excludes
what makes execution stateful or impure — SSD-backed pages (host page
cache with readahead carry, refused here), an installed fault injector
and slow-tier backpressure hooks (:func:`cohort_eligible`); callers fall
back to the scalar engine there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
import numpy.typing as npt

from .. import config, faults
from ..errors import VMError
from ..memsim.accounting import PerfCounters
from ..memsim.bandwidth import TierDemand
from ..memsim.tiers import MemorySystem, Tier, TierSpec
from ..obs import profile as profile_mod
from .batch import segment_fold_left, segment_sums_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..trace.events import InvocationTrace
    from ..vm.microvm import ExecutionResult, MicroVM

__all__ = ["cohort_eligible", "execute_cohort"]

_FLAT_ATTR = "_batch_flat"
_N_BACKINGS = 7
"""Census columns ``0..6`` count first touches by ``Backing`` kind;
compressed-pool faults are counted per tier id in the columns after."""


@dataclass(frozen=True)
class _TraceFlat:
    """Per-epoch columns and the first-touch census of one trace (cached).

    Page-level data is never copied here: the engine reads the trace's
    own ``pages``/``counts`` columns in place.  ``first_pages``/
    ``first_epoch`` locate each distinct page's first occurrence: the
    scalar engine's sticky residency means a page can fault only there,
    and only if its backing is not already resident.  ``tot_counts`` is
    the per-epoch total access count (exact int sum, placement-
    independent, so it is computed once per trace).
    """

    first_pages: npt.NDArray[np.unsignedinteger[Any]]
    first_epoch: npt.NDArray[np.unsignedinteger[Any]]
    tot_counts: npt.NDArray[np.int64]
    cpu: npt.NDArray[np.float64]
    rf: npt.NDArray[np.float64]
    sf: npt.NDArray[np.float64]


def _first_touch(
    trace: "InvocationTrace",
) -> tuple[
    npt.NDArray[np.unsignedinteger[Any]], npt.NDArray[np.unsignedinteger[Any]]
]:
    """Each distinct page (ascending) and the epoch that first touches it.

    A dense ``n_pages`` mark array is stamped epoch by epoch in reverse,
    so the earliest epoch's stamp is the one left standing; pages are
    unique within an epoch, so every stamp is well defined.  Both results
    are kept for the trace's lifetime, so each is stored in the smallest
    unsigned type that holds its largest possible value (``uint16``
    pages for guests of up to 2**16 pages, ``uint8`` epochs for traces
    of up to 256 epochs).
    """
    n_epochs = len(trace.epochs)
    mark = np.full(trace.n_pages, -1, dtype=np.int32)
    for e in range(n_epochs - 1, -1, -1):
        mark[trace.epochs[e].pages] = e
    first_pages = np.flatnonzero(mark >= 0)
    return (
        first_pages.astype(np.min_scalar_type(trace.n_pages - 1)),
        mark[first_pages].astype(np.min_scalar_type(max(n_epochs - 1, 0))),
    )


def _flat(trace: "InvocationTrace") -> _TraceFlat:
    """Build (and memoize on the immutable trace) the per-epoch columns."""
    cached = trace.__dict__.get(_FLAT_ATTR)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    epochs = trace.epochs
    n = len(epochs)
    first_pages, first_epoch = _first_touch(trace)
    flat = _TraceFlat(
        first_pages=first_pages,
        first_epoch=first_epoch,
        tot_counts=segment_sums_int(trace.counts, trace.epoch_ptr),
        cpu=np.fromiter((e.cpu_time_s for e in epochs), dtype=np.float64, count=n),
        rf=np.fromiter(
            (e.random_fraction for e in epochs), dtype=np.float64, count=n
        ),
        sf=np.fromiter(
            (e.store_fraction for e in epochs), dtype=np.float64, count=n
        ),
    )
    object.__setattr__(trace, _FLAT_ATTR, flat)
    return flat


def _segment_sums_nonempty(
    values: npt.NDArray[np.int64], ptr: npt.NDArray[np.int64]
) -> npt.NDArray[np.int64]:
    """Per-segment int sums via ``reduceat`` over non-empty segments.

    Integer addition is associative and exact, so ``reduceat``'s pairwise
    accumulation matches the sequential loop.  ``reduceat`` mishandles
    zero-length segments, so only non-empty starts are passed: each such
    segment then runs to the next non-empty start, which coincides with
    the true segment end because the skipped segments contribute no
    elements (same pattern as the DAMON aggregator).
    """
    out = np.zeros(ptr.size - 1, dtype=np.int64)
    starts = ptr[:-1]
    nonempty = starts < ptr[1:]
    if values.size and nonempty.any():
        out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


def _access_latency(
    spec: TierSpec,
    serial: npt.NDArray[np.float64],
    rf: npt.NDArray[np.float64],
    sf: npt.NDArray[np.float64],
) -> npt.NDArray[Any]:
    """:meth:`TierSpec.effective_access_latency_s` per epoch, same ops."""
    load = spec.load_latency_s * (serial + rf * spec.random_penalty)
    return (1.0 - sf) * load + sf * spec.store_latency_s


def cohort_eligible(memory: MemorySystem) -> bool:
    """Whether the batch fast path is exact for the current process state.

    The scalar engine must be used instead when either of these holds:

    * a process-wide fault injector is installed (restores draw from it);
    * the memory system carries a fault hook (slow-tier specs become
      time-dependent).

    Per-cohort conditions (SSD-backed pages needing the host page cache)
    are checked by the caller against the restored template VM.
    """
    return faults.resolve(None) is None and memory.fault_hook is None


def execute_cohort(
    vm: "MicroVM", traces: Sequence["InvocationTrace"]
) -> "list[ExecutionResult]":
    """Execute each trace against a fresh copy of ``vm``'s restored state.

    Equivalent to restoring the same snapshot once per trace and calling
    ``restore.vm.execute(trace)`` — every counter, demand vector and
    epoch record is bit-for-bit what the scalar engine returns.  ``vm``
    itself is never mutated (the scalar path's per-VM residency and
    page-version writes are unobservable: each scalar invocation's VM is
    discarded after its one execute).
    """
    with profile_mod.phase("sim/execute_cohort"):
        return _execute_cohort(vm, traces)


def _execute_cohort(
    vm: "MicroVM", traces: Sequence["InvocationTrace"]
) -> "list[ExecutionResult]":
    from ..vm.microvm import Backing, EpochRecord, ExecutionResult

    if vm.page_cache is not None:
        raise VMError("batch execution cannot model the host page cache")
    if not traces:
        return []
    for trace in traces:
        if trace.n_pages != vm.n_pages:
            raise VMError(
                f"trace for {trace.n_pages}-page guest executed on "
                f"{vm.n_pages}-page VM"
            )
    flats = [_flat(t) for t in traces]
    memory = vm.memory
    n_tiers = memory.n_tiers
    fast = memory.spec(Tier.FAST)
    slow = memory.spec(Tier.SLOW)

    # -- cohort-wide per-epoch columns and their segmentation --------------
    n_epochs = np.fromiter(
        (len(t.epochs) for t in traces), dtype=np.int64, count=len(traces)
    )
    inv_ptr = np.zeros(len(flats) + 1, dtype=np.int64)
    np.cumsum(n_epochs, out=inv_ptr[1:])
    total_epochs = int(inv_ptr[-1])
    cpu_col = np.concatenate([f.cpu for f in flats])
    rf_col = np.concatenate([f.rf for f in flats])
    sf_col = np.concatenate([f.sf for f in flats])
    tot_col = np.concatenate([f.tot_counts for f in flats])

    # -- fault census and access tallies, one trace at a time ---------------
    # Only first occurrences can fault, so a trace's fault census is one
    # bincount over its (first-touch epoch, census column) pairs; a
    # compressed-pool page's column is its tier id's, because its codec
    # is the placed tier's.  Per-tier tallies are exact integer segment
    # sums over the trace's own columns, read in place, so no page-level
    # column longer than one trace is ever built.  A fully resident
    # template (warm restores) faults nowhere, and a tier no page is
    # placed in (every tier but the fast one, for DRAM/REAP templates) is
    # never read, so those passes short-circuit to exact zeros.
    width = _N_BACKINGS + n_tiers
    pool = int(Backing.COMPRESSED_POOL)
    census = bool(vm.backing.any())
    pooled = census and bool(np.any(vm.backing == pool))
    placed = np.bincount(vm.placement, minlength=n_tiers)
    tallied = [t for t in range(1, n_tiers) if placed[t]]
    fault_table = np.zeros((total_epochs, width), dtype=np.int64)
    n_tier = np.zeros((n_tiers, total_epochs), dtype=np.int64)
    bounds = inv_ptr.tolist()
    for trace, f, lo, hi in zip(traces, flats, bounds[:-1], bounds[1:]):
        if census:
            kinds = vm.backing[f.first_pages].astype(np.int64)
            if pooled:
                in_pool = kinds == pool
                kinds[in_pool] = _N_BACKINGS + vm.placement[f.first_pages[in_pool]]
            faulted = kinds != int(Backing.RESIDENT)
            if np.any(kinds[faulted] == int(Backing.SSD_FILE)):
                raise VMError("batch execution cannot model the host page cache")
            fault_table[lo:hi] = np.bincount(
                f.first_epoch[faulted].astype(np.int64) * width + kinds[faulted],
                minlength=(hi - lo) * width,
            ).reshape(hi - lo, width)
        if tallied:
            tiers = vm.placement[trace.pages]
            for t in tallied:
                n_tier[t, lo:hi] = _segment_sums_nonempty(
                    np.where(tiers == t, trace.counts, 0), trace.epoch_ptr
                )
    n_zero = fault_table[:, int(Backing.ZERO)]
    n_dax = fault_table[:, int(Backing.DAX_SLOW)]
    n_copy = fault_table[:, int(Backing.PMEM_COPY)]
    n_uffd = fault_table[:, int(Backing.UFFD_SSD)]
    pool_faults = fault_table[:, _N_BACKINGS:]
    n_slow = n_tier[int(Tier.SLOW)]
    mid_ids = [t for t in tallied if t != int(Tier.SLOW)]
    n_fast: npt.NDArray[Any] = tot_col - n_slow
    for t in mid_ids:
        n_fast = n_fast - n_tier[t]

    # -- per-epoch float costs: the scalar engine's ops, elementwise --------
    # _fault_in: soft = (n_zero + n_dax) * MINOR + n_copy * PMEM_COPY, then
    # the pool's minor faults and each compressed tier's codec in tier-id
    # order; uffd = n_uffd * UFFD (all left-associated, all starting from
    # 0.0, which is an exact no-op for these non-negative terms).
    soft_e: npt.NDArray[Any] = (n_zero + n_dax) * config.MINOR_FAULT_LATENCY_S + (
        n_copy * config.PMEM_COPY_FAULT_LATENCY_S
    )
    n_pool = pool_faults.sum(axis=1)
    if pooled:
        soft_e = soft_e + n_pool * config.MINOR_FAULT_LATENCY_S
        for tid in range(n_tiers):
            point = getattr(memory.spec(tid), "compression", None)
            if point is not None:
                soft_e = soft_e + pool_faults[:, tid] * point.decompress_page_latency_s
    uffd_e = n_uffd * config.UFFD_FAULT_LATENCY_S
    # fault_stall contribution: (soft + ssd) + uffd with ssd == 0.0, and
    # soft + 0.0 == soft exactly (non-negative), so the 0.0 is elided.
    fault_e = soft_e + uffd_e
    # execute(): tier latencies per epoch (TierSpec formulas, same order).
    serial_e = 1.0 - rf_col
    lat_fast = _access_latency(fast, serial_e, rf_col, sf_col)
    lat_slow_read = slow.load_latency_s * (
        serial_e + rf_col * slow.random_penalty
    )
    reads_e = n_slow * (1.0 - sf_col)
    writes_e = n_slow * sf_col
    e_fast_e = n_fast * lat_fast
    e_read_e = reads_e * lat_slow_read
    e_write_e = writes_e * slow.store_latency_s
    dur_e: npt.NDArray[Any] = (cpu_col + fault_e) + ((e_fast_e + e_read_e) + e_write_e)
    fast_stall_e: npt.NDArray[Any] = e_fast_e
    fast_bytes_inv: npt.NDArray[Any]
    if mid_ids:
        # Middle tiers in chain order: their stall rides the fast
        # resource, and their physical bytes (access_bytes / ratio, not
        # an integer) precede the fast tier's in each epoch's fast_bytes.
        e_mid_e: npt.NDArray[Any] = np.zeros(total_epochs, dtype=np.float64)
        byte_terms = np.empty((total_epochs, len(mid_ids) + 1), dtype=np.float64)
        for j, t in enumerate(mid_ids):
            spec = memory.spec(t)
            ratio = getattr(spec, "effective_capacity_multiplier", 1.0)
            e_mid_e = e_mid_e + n_tier[t] * _access_latency(
                spec, serial_e, rf_col, sf_col
            )
            byte_terms[:, j] = n_tier[t] * (spec.access_bytes / ratio)
        byte_terms[:, -1] = n_fast * fast.access_bytes
        dur_e = dur_e + e_mid_e
        fast_stall_e = e_fast_e + e_mid_e
        fast_bytes_inv = segment_fold_left(
            byte_terms.ravel(), inv_ptr * byte_terms.shape[1]
        )
    else:
        # Integer-valued floats stay exact (and hence order-independent)
        # below 2**53, so the two-tier fast_bytes is one integer product.
        fast_bytes_inv = segment_sums_int(n_fast, inv_ptr) * fast.access_bytes

    # -- per-invocation accumulators --------------------------------------
    # Floats fold sequentially (the scalar `+=` order); integers sum
    # exactly by any method.
    cpu_inv = segment_fold_left(cpu_col, inv_ptr)
    soft_inv = segment_fold_left(soft_e, inv_ptr)
    uffd_stall_inv = segment_fold_left(uffd_e, inv_ptr)
    fault_stall_inv = segment_fold_left(fault_e, inv_ptr)
    fast_stall_inv = segment_fold_left(fast_stall_e, inv_ptr)
    slow_stall_inv = segment_fold_left(e_read_e + e_write_e, inv_ptr)
    read_stall_inv = segment_fold_left(e_read_e, inv_ptr)
    write_stall_inv = segment_fold_left(e_write_e, inv_ptr)
    read_ops_inv = segment_fold_left(reads_e, inv_ptr)
    write_ops_inv = segment_fold_left(writes_e, inv_ptr)
    fast_inv = segment_sums_int(tot_col - n_slow, inv_ptr)
    slow_inv = segment_sums_int(n_slow, inv_ptr)
    minor_inv = segment_sums_int(n_zero + n_dax + n_copy + n_pool, inv_ptr)
    # ssd_ops / uffd_ops accumulate integer-valued floats, exact as above.
    uffd_inv = segment_sums_int(n_uffd, inv_ptr)

    results: list[ExecutionResult] = []
    dur_list = dur_e.tolist()
    for i, trace in enumerate(traces):
        lo = int(inv_ptr[i])
        records = tuple(
            EpochRecord(dur_list[lo + j], epoch.pages, epoch.counts)
            for j, epoch in enumerate(trace.epochs)
        )
        counters = PerfCounters(
            cpu_time_s=float(cpu_inv[i]),
            fast_stall_s=float(fast_stall_inv[i]),
            slow_stall_s=float(slow_stall_inv[i]),
            fault_stall_s=float(fault_stall_inv[i]),
            fast_accesses=int(fast_inv[i]),
            slow_accesses=int(slow_inv[i]),
            minor_faults=int(minor_inv[i]),
            major_faults=int(uffd_inv[i]),
        )
        demand = TierDemand(
            cpu_time_s=counters.cpu_time_s + float(soft_inv[i]),
            fast_stall_s=counters.fast_stall_s,
            fast_bytes=float(fast_bytes_inv[i]),
            slow_read_stall_s=float(read_stall_inv[i]),
            slow_read_ops=float(read_ops_inv[i]),
            slow_write_stall_s=float(write_stall_inv[i]),
            slow_write_ops=float(write_ops_inv[i]),
            ssd_stall_s=0.0,
            ssd_ops=float(uffd_inv[i]),
            uffd_stall_s=float(uffd_stall_inv[i]),
            uffd_ops=float(uffd_inv[i]),
        )
        results.append(
            ExecutionResult(
                counters=counters,
                demand=demand,
                epoch_records=records,
                label=trace.label,
            )
        )
    return results
