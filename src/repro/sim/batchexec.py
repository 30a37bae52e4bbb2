"""The execute engine: traces replayed against a restored VM's state.

Every guest execution in the simulator runs through
:func:`execute_cohort`.  :meth:`repro.vm.microvm.MicroVM.execute` is its
one-trace case, which runs on the VM it is given and leaves the
execution's effects there; a synchronized arrival cohort (Figure 9's C
concurrent cold starts) replays *C* traces against *identical* restored
state — same placement, same backing, every member after the first on
its own copy of the VM's residency and host page cache — and
:meth:`ServerlessSystem.invoke_batch
<repro.baselines.base.ServerlessSystem.invoke_batch>` runs it as one
call.  The per-epoch arithmetic is laid out flat and computed with
NumPy over the whole cohort at once, for any
:class:`~repro.memsim.tiers.MemorySystem` chain, and is **bit-identical**
to the epoch-by-epoch scalar loop it replaced (kept under ``tests/`` as
the reference every bit-identity property compares against):

* Every float is produced by the same IEEE-754 operation sequence the
  scalar loop performs — elementwise vectorized ops replicate scalar
  ops exactly, and the per-invocation accumulators are folded with
  :func:`~repro.sim.batch.segment_fold_left` (a true sequential left
  fold, not a pairwise reduction), all columns in one pass.  That
  includes ``fast_bytes`` on a chain with middle tiers, whose per-epoch
  terms (middle tiers in chain order, then the fast tier) are not
  integers.
* Per-epoch integer tallies (accesses per tier id, fault-kind counts,
  compressed-pool faults per tier id) are order-independent and exact,
  so they use ``np.add.reduceat`` over the non-empty epoch segments (the
  empty ones contribute nothing and are masked out, as ``reduceat``
  mishandles zero-length segments) and one ``np.bincount`` per epoch
  over its faulting pages.  Both run trace by trace over the trace's own
  read-only columns
  (:attr:`~repro.trace.events.InvocationTrace.pages`/``counts``), so the
  engine never copies a trace or builds a cohort-wide page column.
  Their per-invocation totals ride the float fold as integer-valued
  floats, which stay exact below 2**53.
* A page faults only where a trace first touches it, and only if the
  VM's residency says it is not yet resident; a warm re-execute on the
  same VM therefore faults nowhere.
* SSD-backed first touches go through the host page cache epoch by
  epoch, in epoch order, so its readahead carries across epochs exactly
  as in the scalar loop (:meth:`HostPageCache.fault_in
  <repro.memsim.page_cache.HostPageCache.fault_in>` keeps its run
  recurrence).
* An epoch with no pages contributes exact zeros everywhere, and
  ``x + 0.0 == x`` for the non-negative accumulators involved, so the
  scalar loop's ``if pages.size:`` and ``if count:`` guards need no
  special-casing.

The engine resolves the slow tier's spec once per call, as the scalar
loop did, so a slow-tier backpressure hook is read once per execution.
It emits no spans or metrics: :meth:`MicroVM.execute` and
``invoke_batch`` emit each invocation's execute span from its result
(:func:`repro.vm.microvm._observe_execute`).  The float accounting is
one function, :func:`account`, which :class:`repro.core.analysis.BinTable`
calls on its own tallies to time bin placements without building a VM.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
import numpy.typing as npt

from .. import config
from ..errors import VMError
from ..memsim.accounting import PerfCounters
from ..memsim.bandwidth import TierDemand
from ..memsim.page_cache import HostPageCache
from ..memsim.tiers import Tier, TierSpec
from ..obs import profile as profile_mod
from .batch import segment_fold_left

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..trace.events import InvocationTrace
    from ..vm.microvm import ExecutionResult, MicroVM

__all__ = ["account", "execute_cohort"]

_FLAT_ATTR = "_batch_flat"
_N_BACKINGS = 7
"""Census columns ``0..6`` count first touches by ``Backing`` kind;
compressed-pool faults are counted per tier id in the columns after."""


@dataclass(frozen=True)
class _TraceFlat:
    """Per-epoch columns of one trace (cached on the trace).

    Page-level data is never copied here: the engine reads the trace's
    own ``pages``/``counts`` columns in place.  ``tot_counts`` is the
    per-epoch total access count (exact int sum, placement-independent,
    so it is computed once per trace).
    """

    tot_counts: npt.NDArray[np.int64]
    cpu: npt.NDArray[np.float64]
    rf: npt.NDArray[np.float64]
    sf: npt.NDArray[np.float64]


def _flat(trace: "InvocationTrace") -> _TraceFlat:
    """Build (and memoize on the immutable trace) the per-epoch columns."""
    cached = trace.__dict__.get(_FLAT_ATTR)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    epochs = trace.epochs
    n = len(epochs)
    flat = _TraceFlat(
        tot_counts=_segment_sums_nonempty(trace.counts, trace.epoch_ptr),
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


def _cold_touches(
    pages: npt.NDArray[np.intp],
    ptr: npt.NDArray[np.int64],
    seen: npt.NDArray[np.bool_],
) -> list[npt.NDArray[np.intp]]:
    """Each epoch's pages not yet ``seen``, which this marks seen.

    ``pages`` is a trace's pages column widened to ``intp`` and ``ptr``
    its ``epoch_ptr``.  This is the scalar loop's fault rule: an epoch
    faults on its pages not yet resident, and they become resident.
    Pages are unique within an epoch, so every page shows up once at
    most, ascending within the epoch that first touches it.
    """
    cold: list[npt.NDArray[np.intp]] = []
    bounds = ptr.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        epoch_pages = pages[lo:hi]
        new = epoch_pages[~seen[epoch_pages]]
        seen[new] = True
        cold.append(new)
    return cold


def _segment_sums_nonempty(
    values: npt.NDArray[np.integer[Any]], ptr: npt.NDArray[np.int64]
) -> npt.NDArray[np.int64]:
    """Per-segment int sums via ``reduceat`` over non-empty segments.

    Integer addition is associative and exact, so ``reduceat``'s pairwise
    accumulation matches the sequential loop.  ``reduceat`` mishandles
    zero-length segments, so only non-empty starts are passed: each such
    segment then runs to the next non-empty start, which coincides with
    the true segment end because the skipped segments contribute no
    elements (same pattern as the DAMON aggregator).  The sums run in the
    column's own dtype, since a cast inside ``reduceat`` costs more than
    the sum; a trace's counts sum below 2**31 (checked when the trace is
    built), so no int32 segment sum can overflow.
    """
    starts = ptr[:-1]
    nonempty = starts < ptr[1:]
    out = np.zeros(ptr.size - 1, dtype=np.int64)
    if nonempty.any():
        out[nonempty] = np.add.reduceat(
            values, starts[nonempty], dtype=values.dtype
        )
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


def _member_cache(vm: "MicroVM", first: bool) -> HostPageCache:
    """The host page cache one member's SSD-backed faults go through.

    The first member runs on ``vm``'s own cache (made on first use);
    every other member on a copy of it, taken before the first member
    touches it, so all start from the cache state ``vm`` held when the
    call began (a fresh restore's is empty).
    """
    if vm.page_cache is None:
        cache = HostPageCache(vm.n_pages, readahead_pages=config.READAHEAD_PAGES)
        if first:
            vm.page_cache = cache
        return cache
    return vm.page_cache if first else copy.deepcopy(vm.page_cache)


_FOLDS = (
    "cpu", "soft", "uffd_stall", "fault_stall", "fast_stall", "slow_stall",
    "read_stall", "write_stall", "read_ops", "write_ops", "ssd_stall",
    "fast", "slow", "minor", "uffd", "miss", "fast_bytes",
)
"""The per-invocation left folds :func:`account` takes, in column order."""


def account(
    by_id: Sequence[TierSpec],
    traces: Sequence["InvocationTrace"],
    n_tier: npt.NDArray[np.int64],
    fault_table: npt.NDArray[np.int64] | None = None,
    misses: npt.NDArray[np.int64] | None = None,
) -> "list[ExecutionResult]":
    """The float accounting of a cohort's epochs (its traces' epochs in
    order), shared by the kernel and :class:`repro.core.analysis.BinTable`.

    ``by_id`` holds the tier specs by id, the slow one as the caller
    resolved it; ``n_tier[t, e]`` counts epoch ``e``'s accesses to tier
    ``t >= 1`` (the fast tier gets the rest).  ``fault_table`` has one
    column per ``Backing`` kind, then one per compressed tier id, of
    first-touch faults per epoch, and ``misses`` the page-cache misses;
    both default to zero, as on a resident VM.
    """
    from ..vm.microvm import Backing, EpochRecord, ExecutionResult

    flats = [_flat(t) for t in traces]
    inv_ptr = np.array([0, *accumulate(len(t.epochs) for t in traces)])
    cpu_col = np.concatenate([f.cpu for f in flats])
    rf_col = np.concatenate([f.rf for f in flats])
    sf_col = np.concatenate([f.sf for f in flats])
    tot_col = np.concatenate([f.tot_counts for f in flats])
    total_epochs, n_tiers = cpu_col.size, len(by_id)
    fast, slow = by_id[int(Tier.FAST)], by_id[int(Tier.SLOW)]
    if fault_table is None:
        fault_table = np.zeros((total_epochs, _N_BACKINGS + n_tiers), dtype=np.int64)
    if misses is None:
        misses = np.zeros(total_epochs, dtype=np.int64)
    n_zero = fault_table[:, int(Backing.ZERO)]
    n_dax = fault_table[:, int(Backing.DAX_SLOW)]
    n_copy = fault_table[:, int(Backing.PMEM_COPY)]
    n_uffd = fault_table[:, int(Backing.UFFD_SSD)]
    hits = fault_table[:, int(Backing.SSD_FILE)] - misses
    pool_faults = fault_table[:, _N_BACKINGS:]
    n_slow = n_tier[int(Tier.SLOW)]
    mid_ids = [t for t in range(2, n_tiers) if n_tier[t].any()]
    n_fast: npt.NDArray[Any] = tot_col - n_slow
    for t in mid_ids:
        n_fast = n_fast - n_tier[t]

    # -- per-epoch float costs: the scalar loop's ops, elementwise ----------
    # Fault costs: soft = (n_zero + n_dax) * MINOR + n_copy * PMEM_COPY,
    # then the pool's minor faults and each compressed tier's codec in
    # tier-id order, then the page-cache hits' minor faults; ssd = misses
    # * MAJOR; uffd = n_uffd * UFFD; fault = (soft + ssd) + uffd.  All are
    # left-associated and start from 0.0, and adding a zero term is exact
    # for these non-negative sums, so every term is added whether or not
    # a fault of its kind happened.
    n_pool = pool_faults.sum(axis=1)
    soft_e: npt.NDArray[Any] = (
        (n_zero + n_dax) * config.MINOR_FAULT_LATENCY_S
        + n_copy * config.PMEM_COPY_FAULT_LATENCY_S
    ) + n_pool * config.MINOR_FAULT_LATENCY_S
    for tid, spec in enumerate(by_id):
        point = getattr(spec, "compression", None)
        if point is not None:
            soft_e = soft_e + pool_faults[:, tid] * point.decompress_page_latency_s
    soft_e = soft_e + hits * config.MINOR_FAULT_LATENCY_S
    ssd_e = misses * config.MAJOR_FAULT_LATENCY_S
    uffd_e = n_uffd * config.UFFD_FAULT_LATENCY_S
    fault_e = (soft_e + ssd_e) + uffd_e
    # Tier latencies per epoch (TierSpec formulas, same order).
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
    # Each epoch's fast_bytes terms: middle tiers in chain order (physical
    # bytes, access_bytes / ratio, not integers), then the fast tier.
    byte_terms = np.empty((total_epochs, len(mid_ids) + 1), dtype=np.float64)
    if mid_ids:
        # Middle-tier stall rides the fast resource.
        e_mid_e: npt.NDArray[Any] = np.zeros(total_epochs, dtype=np.float64)
        for j, t in enumerate(mid_ids):
            spec = by_id[t]
            ratio = getattr(spec, "effective_capacity_multiplier", 1.0)
            e_mid_e = e_mid_e + n_tier[t] * _access_latency(
                spec, serial_e, rf_col, sf_col
            )
            byte_terms[:, j] = n_tier[t] * (spec.access_bytes / ratio)
        dur_e = dur_e + e_mid_e
        fast_stall_e = e_fast_e + e_mid_e
    byte_terms[:, -1] = n_fast * fast.access_bytes
    fast_bytes_inv = segment_fold_left(
        byte_terms.ravel(), inv_ptr * byte_terms.shape[1]
    )

    # -- per-invocation accumulators --------------------------------------
    # One sequential fold (the scalar `+=` order) over every column.  The
    # integer tallies ride along as integer-valued floats, which the fold
    # keeps exact below 2**53, as the scalar loop's ssd_ops and uffd_ops.
    folds = segment_fold_left(
        np.array(
            (
                cpu_col,
                soft_e,
                uffd_e,
                fault_e,
                fast_stall_e,
                e_read_e + e_write_e,
                e_read_e,
                e_write_e,
                reads_e,
                writes_e,
                ssd_e,
                tot_col - n_slow,
                n_slow,
                n_zero + n_dax + n_copy + n_pool + hits,
                n_uffd,
                misses,
            )
        ).T,
        inv_ptr,
    )
    results: list[ExecutionResult] = []
    durations = iter(dur_e.tolist())
    rows = np.column_stack((folds, fast_bytes_inv)).tolist()
    for trace, row in zip(traces, rows):
        f = dict(zip(_FOLDS, row))
        counters = PerfCounters(
            cpu_time_s=f["cpu"],
            fast_stall_s=f["fast_stall"],
            slow_stall_s=f["slow_stall"],
            fault_stall_s=f["fault_stall"],
            fast_accesses=int(f["fast"]),
            slow_accesses=int(f["slow"]),
            minor_faults=int(f["minor"]),
            major_faults=int(f["uffd"] + f["miss"]),
        )
        demand = TierDemand(
            cpu_time_s=counters.cpu_time_s + f["soft"],
            fast_stall_s=counters.fast_stall_s,
            fast_bytes=f["fast_bytes"],
            slow_read_stall_s=f["read_stall"],
            slow_read_ops=f["read_ops"],
            slow_write_stall_s=f["write_stall"],
            slow_write_ops=f["write_ops"],
            ssd_stall_s=f["ssd_stall"],
            ssd_ops=f["uffd"] + f["miss"],
            uffd_stall_s=f["uffd_stall"],
            uffd_ops=f["uffd"],
        )
        # Epochs first: zip then stops without drawing a duration.
        records = tuple(
            EpochRecord(duration, epoch.pages, epoch.counts)
            for epoch, duration in zip(trace.epochs, durations)
        )
        results.append(ExecutionResult(counters, demand, records, trace.label))
    return results


def execute_cohort(
    vm: "MicroVM", traces: Sequence["InvocationTrace"]
) -> "list[ExecutionResult]":
    """Execute each trace against ``vm``'s placement, backing and state.

    Equivalent to restoring the same snapshot once per trace and
    executing each trace on its own VM, the first of them being ``vm``:
    every counter, demand vector and epoch record is bit-for-bit what the
    epoch-by-epoch scalar loop returns.  The first trace runs on ``vm``
    itself — its touched pages become resident, every page gains one
    version per store epoch that touches it, and its SSD-backed faults
    fill ``vm.page_cache`` — which makes :meth:`MicroVM.execute
    <repro.vm.microvm.MicroVM.execute>` the one-trace case.  Every other
    trace runs on its own copy of the residency and host page cache
    ``vm`` held when the call began.
    """
    with profile_mod.phase("sim/execute_cohort"):
        return _execute_cohort(vm, traces)


def _execute_cohort(
    vm: "MicroVM", traces: Sequence["InvocationTrace"]
) -> "list[ExecutionResult]":
    from ..vm.microvm import Backing

    if not traces:
        return []
    for trace in traces:
        if trace.n_pages != vm.n_pages:
            raise VMError(
                f"trace for {trace.n_pages}-page guest executed on "
                f"{vm.n_pages}-page VM"
            )
    memory = vm.memory
    n_tiers = memory.n_tiers
    # The slow spec is resolved once per call, so an active fault hook
    # (slow-tier backpressure) is read once and holds for the execution.
    by_id = (memory.spec(Tier.FAST), memory.spec(Tier.SLOW), *memory.middle)
    bounds = [0, *accumulate(len(t.epochs) for t in traces)]
    total_epochs = bounds[-1]

    # -- fault census and access tallies, one trace at a time ---------------
    # A page faults only where its trace first touches it, and only if the
    # VM does not hold it resident already, so an epoch's census is one
    # bincount over its cold first touches' census columns; a
    # compressed-pool page's column is its tier id's, because its codec
    # is the placed tier's.  SSD-backed ones go through the member's host
    # page cache epoch by epoch, ascending within each epoch, as the
    # scalar loop served them.  Per-tier tallies are exact integer segment
    # sums over the trace's own columns, read in place, so no page-level
    # column longer than one trace is ever built.  The int32 pages column
    # is widened to intp once per trace, because NumPy gathers with an
    # intp index faster than with an int32 one; every member widens into
    # one buffer, since a fresh trace-sized array per member would make
    # the allocator return and re-fault its pages member after member.
    # A fully resident VM (warm restores, warm re-executes) faults
    # nowhere, and a tier the trace never touches (every tier but the
    # fast one, for DRAM/REAP templates) is not summed, so those passes
    # short-circuit to exact zeros.
    width = _N_BACKINGS + n_tiers
    pool = int(Backing.COMPRESSED_POOL)
    ssd = int(Backing.SSD_FILE)
    resident = vm._resident
    census = not bool(resident.all())
    fault_table = np.zeros((total_epochs, width), dtype=np.int64)
    misses = np.zeros(total_epochs, dtype=np.int64)
    n_tier = np.zeros((n_tiers, total_epochs), dtype=np.int64)
    wide_buf = np.empty(max(t.pages.size for t in traces), dtype=np.intp)
    # The first member runs on vm itself (its residency and page cache),
    # so it runs last: every other member copies vm's state untouched.
    for i in range(len(traces) - 1, -1, -1):
        trace, lo, hi = traces[i], bounds[i], bounds[i + 1]
        wide = wide_buf[: trace.pages.size]
        np.copyto(wide, trace.pages)
        if census and hi > lo:
            cold = _cold_touches(
                wide, trace.epoch_ptr, resident if i == 0 else resident.copy()
            )
            pages = np.concatenate(cold)
            kinds = vm.backing[pages].astype(np.int64)
            in_pool = kinds == pool
            if in_pool.any():
                kinds[in_pool] = _N_BACKINGS + vm.placement[pages[in_pool]]
            cache: HostPageCache | None = None
            a = 0
            for e, new in enumerate(cold, start=lo):
                epoch_kinds = kinds[a : a + new.size]
                a += new.size
                fault_table[e] = np.bincount(epoch_kinds, minlength=width)
                if fault_table[e, ssd]:
                    # Through the member's host page cache, epoch by epoch.
                    if cache is None:
                        cache = _member_cache(vm, i == 0)
                    misses[e] = cache.fault_in(new[epoch_kinds == ssd])
        tiers = vm.placement[wide]
        for t in range(1, n_tiers):
            on_t = tiers == t
            if on_t.any():
                n_tier[t, lo:hi] = _segment_sums_nonempty(
                    trace.counts * on_t, trace.epoch_ptr
                )
    results = account(by_id, traces, n_tier, fault_table, misses)

    # Stores of the first trace dirty vm's touched pages (content
    # versioning); its residency and page cache were written above.  The
    # loop ran the first trace last, so ``wide`` holds its pages.  Pages
    # are unique within an epoch, so ``add.at`` adds what ``+=`` would,
    # at about half its cost on large traces.
    first_ptr = traces[0].epoch_ptr.tolist()
    one = np.uint64(1)
    for epoch, a, b in zip(traces[0].epochs, first_ptr[:-1], first_ptr[1:]):
        if epoch.store_fraction > 0:
            np.add.at(vm.page_versions, wide[a:b], one)

    return results
