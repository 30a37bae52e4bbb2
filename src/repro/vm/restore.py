"""Restore strategies (the systems under evaluation).

Every strategy produces a :class:`RestoreResult`: a cold :class:`MicroVM`
wired with the right placement/backing plus the simulated *setup time* —
the quantity Figure 7 compares.  Execution after restore then pays the
strategy's residual fault costs (Figure 8's total invocation time).

* :func:`warm_restore` — everything already resident in DRAM; the
  normalisation baseline ("DRAM" in Figures 8/9).
* :func:`lazy_restore` — vanilla Firecracker: mmap the single memory file
  on the SSD, load pages on demand through the host page cache.
* :func:`reap_restore` — REAP: prefetch the recorded working set
  sequentially and install its page-table entries; every other page is
  served by the userfaultfd handler on first touch.
* :func:`tiered_restore` — TOSS: parse the layout file and establish one
  mapping per region; slow-tier pages are DAX-backed, fast-tier pages are
  copied out of persistent memory on first touch.  Setup is O(mappings),
  independent of snapshot size — the source of the paper's 52x claim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import config, faults
from ..errors import (
    FaultInjected,
    RestoreRetryExhausted,
    TierUnavailableError,
)
from ..obs import runtime as obs_runtime
from ..memsim.storage import StorageDevice
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem, Tier
from .microvm import Backing, MicroVM
from .snapshot import ReapSnapshot, SingleTierSnapshot, TieredSnapshot

__all__ = [
    "RestorePhase",
    "RestoreResult",
    "warm_restore",
    "lazy_restore",
    "reap_restore",
    "tiered_restore",
    "recovering_restore",
]


@dataclass(frozen=True)
class RestorePhase:
    """One step of a restore's setup timeline.

    Every strategy decomposes its setup bill into ordered phases (VM
    state load, per-region mmap establishment, working-set prefetch,
    …).  ``seconds`` is the phase's *uncontended* duration — the phases
    of a result sum left-to-right to exactly ``setup_time_s``.  Phases
    that put load on shared hardware name the ``resource`` (a key of
    :data:`repro.memsim.bandwidth.RESOURCES`) and the operation count
    ``ops`` they offer it; both are recorded on the phase's span."""

    label: str
    seconds: float
    resource: str | None = None
    ops: float = 0.0


@dataclass(frozen=True)
class RestoreResult:
    """A restored (cold) VM plus the setup-time bill.

    ``retries``/``fault_stall_s`` report recovery work the restore had to
    absorb from injected faults (zero on the happy path); ``fallback``
    marks a result produced by the vanilla lazy path after the requested
    strategy failed unrecoverably; ``backpressure`` is the slow-tier
    latency multiplier in force when the restore happened;
    ``phases`` is the setup bill decomposed into the ordered
    :class:`RestorePhase` steps the event kernel replays;
    ``bytes_by_tier`` is what the restore mapped or streamed per memory
    tier, as ``(tier, bytes)`` pairs for the restore-bytes counter."""

    vm: MicroVM
    setup_time_s: float
    strategy: str
    n_mappings: int = 1
    retries: int = 0
    fault_stall_s: float = 0.0
    fallback: bool = False
    backpressure: float = 1.0
    phases: tuple[RestorePhase, ...] = ()
    bytes_by_tier: tuple[tuple[str, float], ...] = ()


def _observe_restore(result: RestoreResult) -> RestoreResult:
    """Trace and meter one restore when observation is active.

    The restore becomes a ``restore/<strategy>`` span whose children are
    the :class:`RestorePhase` steps laid out left-to-right with their
    analytic durations, so the children's durations sum to
    ``setup_time_s`` exactly (same IEEE-754 addition order as
    :func:`_total_seconds`).  ``result.bytes_by_tier`` feeds the
    restore-bytes-by-tier counter.  Every strategy calls it as it
    returns, and the batch path calls it again per invocation it
    serves from one restore, so both engines emit the same spans and
    metrics.  A no-op — returning the result untouched — unless an
    observation is activated.
    """
    obs = obs_runtime.active()
    if obs is None:
        return result
    tracer = obs.tracer
    with tracer.span(
        f"restore/{result.strategy}",
        attrs={
            "n_mappings": result.n_mappings,
            "retries": result.retries,
            "fallback": result.fallback,
            "backpressure": result.backpressure,
        },
    ) as span:
        for phase in result.phases:
            tracer.record(
                f"restore/{result.strategy}/{phase.label}",
                phase.seconds,
                attrs={"resource": phase.resource or "", "ops": phase.ops},
            )
        span.attrs["setup_s"] = result.setup_time_s
    obs.metrics.histogram(
        "toss_restore_setup_seconds",
        "Simulated restore setup time by strategy",
    ).observe(result.setup_time_s, strategy=result.strategy)
    if result.bytes_by_tier:
        counter = obs.metrics.counter(
            "toss_restore_bytes_total",
            "Bytes mapped or streamed at restore, by memory tier",
        )
        for tier, n_bytes in result.bytes_by_tier:
            counter.inc(n_bytes, strategy=result.strategy, tier=tier)
    if result.retries:
        obs.metrics.counter(
            "toss_restore_retries_total",
            "Faulted snapshot reads recovered by retry during restores",
        ).inc(result.retries, strategy=result.strategy)
    if result.fallback:
        obs.metrics.counter(
            "toss_restore_fallbacks_total",
            "Restores served by the lazy fallback path",
        ).inc(1.0, strategy=result.strategy)
    return result


def _total_seconds(phases: tuple[RestorePhase, ...]) -> float:
    """Left-to-right sum of phase durations.

    The phase decomposition is the *definition* of setup time: summing in
    phase order reproduces the historical closed-form expressions
    bit-for-bit (each phase is one term of the old sum, and IEEE-754
    addition is performed in the same order).
    """
    total = 0.0
    for phase in phases:
        total += phase.seconds
    return total


def _verify_snapshot(snapshot, injector: "faults.FaultInjector | None") -> None:
    """Restore-time integrity check, active only under a fault plane.

    Draws at-rest corruption for this open, then checksum-verifies the
    memory file (which also catches damage injected on earlier opens).
    Without an injector — or with the all-zero plan — this is a no-op, so
    fault-free restores stay bit-identical to the pre-fault code path.
    """
    if injector is None or injector.is_zero:
        return
    if injector.draw_snapshot_corruption():
        injector.corrupt_snapshot(snapshot.base)
    snapshot.verify()


def warm_restore(
    snapshot: SingleTierSnapshot,
    *,
    memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
) -> RestoreResult:
    """All guest memory resident in the fast tier; zero setup cost.

    Not achievable in practice (it is the keep-alive/warm case); used as
    the DRAM reference that Figures 8 and 9 normalise against.
    """
    vm = MicroVM(
        snapshot.n_pages,
        memory=memory,
        page_versions=snapshot.page_versions,
        label=f"warm:{snapshot.label}",
    )
    return _observe_restore(
        RestoreResult(vm=vm, setup_time_s=0.0, strategy="warm", phases=())
    )


def lazy_restore(
    snapshot: SingleTierSnapshot,
    *,
    memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
) -> RestoreResult:
    """Vanilla Firecracker snapshot restore (Section II-A).

    Loads the VM state, memory-maps the guest memory file, and lets guest
    pages come in on demand — fast setup, page faults during execution.
    """
    vm = MicroVM(
        snapshot.n_pages,
        memory=memory,
        backing=np.full(snapshot.n_pages, int(Backing.SSD_FILE), dtype=np.uint8),
        page_versions=snapshot.page_versions,
        label=f"lazy:{snapshot.label}",
    )
    phases = (
        RestorePhase("vm-state-load", config.VM_STATE_LOAD_S),
        RestorePhase("mmap", config.MMAP_REGION_SETUP_S),
    )
    return _observe_restore(
        RestoreResult(
            vm=vm,
            setup_time_s=_total_seconds(phases),
            strategy="lazy",
            phases=phases,
            bytes_by_tier=(("ssd", float(snapshot.n_pages * config.PAGE_SIZE)),),
        )
    )


def reap_restore(
    snapshot: ReapSnapshot,
    *,
    memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
    ssd: StorageDevice | None = None,
    injector: "faults.FaultInjector | None" = None,
) -> RestoreResult:
    """REAP restore: eager working-set prefetch (Section VI-B).

    Setup streams the WS file from the SSD and populates the page-table
    entries of every WS page, so setup time grows with the recorded
    working set.  Pages outside the WS are registered with userfaultfd and
    served one-by-one on first touch.

    Under a fault plane, the snapshot file is checksum-verified first
    (raising :class:`~repro.errors.SnapshotCorruptionError` on damage) and
    faulted WS page reads are retried with capped exponential backoff —
    billed into setup time — raising
    :class:`~repro.errors.RestoreRetryExhausted` past the retry budget.
    """
    injector = faults.resolve(injector)
    _verify_snapshot(snapshot, injector)
    ssd = ssd if ssd is not None else StorageDevice()
    retries = 0
    fault_stall_s = 0.0
    if injector is not None and not injector.is_zero:
        outcome = injector.retry_reads(injector.draw_read_faults(snapshot.ws_pages))
        if outcome.unrecoverable:
            raise RestoreRetryExhausted(
                f"REAP prefetch of {snapshot.base.label!r}: "
                f"{outcome.n_faults} faulted reads exceeded the retry budget"
            )
        retries = outcome.retries
        fault_stall_s = outcome.backoff_s
    backing = np.full(snapshot.n_pages, int(Backing.UFFD_SSD), dtype=np.uint8)
    backing[snapshot.ws_mask] = int(Backing.RESIDENT)
    vm = MicroVM(
        snapshot.n_pages,
        memory=memory,
        backing=backing,
        page_versions=snapshot.base.page_versions,
        label=f"reap:{snapshot.base.label}",
    )
    stall_before = ssd.injected_stall_s
    phases = (
        RestorePhase("vm-state-load", config.VM_STATE_LOAD_S),
        RestorePhase("mmap", 2 * config.MMAP_REGION_SETUP_S),  # memory + WS file
        RestorePhase(
            "ws-stream",
            ssd.sequential_read_time(snapshot.ws_bytes),
            resource="ssd",
            ops=float(snapshot.ws_pages),
        ),
        RestorePhase(
            "ws-populate", snapshot.ws_pages * config.REAP_POPULATE_PER_PAGE_S
        ),
        RestorePhase("fault-backoff", fault_stall_s),
    )
    fault_stall_s += ssd.injected_stall_s - stall_before
    return _observe_restore(
        RestoreResult(
            vm=vm,
            setup_time_s=_total_seconds(phases),
            strategy="reap",
            n_mappings=2,
            retries=retries,
            fault_stall_s=fault_stall_s,
            phases=phases,
            bytes_by_tier=(("ssd", float(snapshot.ws_bytes)),),
        )
    )


def tiered_restore(
    snapshot: TieredSnapshot,
    *,
    memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
    injector: "faults.FaultInjector | None" = None,
) -> RestoreResult:
    """TOSS restore (Section V-D).

    Reads the memory layout file and establishes one mapping per region:
    slow-tier regions are DAX mappings of the persistent slow-tier file
    (no storage I/O, ever); fast-tier regions map the persistent fast-tier
    file and are copied into DRAM on first touch.  Setup time depends only
    on the number of mappings — constant per function.

    Under a fault plane the restore refuses to map through a slow-tier
    outage window (:class:`~repro.errors.TierUnavailableError`) and
    checksum-verifies the tier files before mapping
    (:class:`~repro.errors.SnapshotCorruptionError` on damage).
    """
    injector = faults.resolve(injector)
    backpressure = 1.0
    retries = 0
    fault_stall_s = 0.0
    if injector is not None and not injector.is_zero:
        if not injector.slow_tier_available():
            raise TierUnavailableError(
                f"tiered restore of {snapshot.base.label!r}: slow tier is in "
                f"an outage window at t={injector.now:.3f}s"
            )
        backpressure = injector.slow_latency_multiplier()
        # The layout file and the per-region metadata reads come from
        # snapshot storage, so they see the device's error rate; faulted
        # reads are retried with capped exponential backoff.
        n_reads = 1 + snapshot.layout.n_mappings
        outcome = injector.retry_reads(injector.draw_read_faults(n_reads))
        if outcome.unrecoverable:
            raise RestoreRetryExhausted(
                f"tiered restore of {snapshot.base.label!r}: "
                f"{outcome.n_faults} faulted layout reads exceeded the "
                "retry budget"
            )
        retries = outcome.retries
        fault_stall_s = outcome.backoff_s
    _verify_snapshot(snapshot, injector)
    placement = snapshot.placement()
    backing = np.where(
        placement == int(Tier.SLOW), int(Backing.DAX_SLOW), int(Backing.PMEM_COPY)
    ).astype(np.uint8)
    if memory.middle:
        # Middle tiers (ids 2+) are software compressed pools: first
        # touch decompresses in place instead of copying out of PMEM.
        # Two-tier snapshots never take this branch, so the classic
        # restore stays bit-identical.
        backing[placement > int(Tier.SLOW)] = int(Backing.COMPRESSED_POOL)
    vm = MicroVM(
        snapshot.n_pages,
        memory=memory,
        placement=placement,
        backing=backing,
        page_versions=snapshot.base.page_versions,
        label=f"toss:{snapshot.base.label}",
    )
    phases = (
        RestorePhase("vm-state-load", config.VM_STATE_LOAD_S),
        RestorePhase("restore-base", config.TIERED_RESTORE_BASE_S),
        RestorePhase(
            "layout-parse",
            snapshot.layout.parse_time_s(),
            resource="ssd",
            ops=float(1 + snapshot.layout.n_mappings),
        ),
        RestorePhase(
            "mappings", snapshot.layout.n_mappings * config.MMAP_REGION_SETUP_S
        ),
        RestorePhase("fault-backoff", fault_stall_s),
    )
    n_slow = int(np.count_nonzero(placement == int(Tier.SLOW)))
    n_mid = int(np.count_nonzero(placement > int(Tier.SLOW))) if memory.middle else 0
    bytes_by_tier = (
        ("slow", float(n_slow * config.PAGE_SIZE)),
        ("fast", float((snapshot.n_pages - n_slow - n_mid) * config.PAGE_SIZE)),
    )
    if memory.middle:
        bytes_by_tier += (("compressed", float(n_mid * config.PAGE_SIZE)),)
    return _observe_restore(
        RestoreResult(
            vm=vm,
            setup_time_s=_total_seconds(phases),
            strategy="toss",
            n_mappings=snapshot.layout.n_mappings,
            retries=retries,
            fault_stall_s=fault_stall_s,
            backpressure=backpressure,
            phases=phases,
            bytes_by_tier=bytes_by_tier,
        )
    )


def recovering_restore(
    snapshot: SingleTierSnapshot | ReapSnapshot | TieredSnapshot,
    *,
    memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
    injector: "faults.FaultInjector | None" = None,
    fallback_source: SingleTierSnapshot | None = None,
) -> tuple[RestoreResult, FaultInjected | None]:
    """Restore by the snapshot's natural strategy, falling back to the
    vanilla lazy restore of a single-tier memory file when the strategy
    fails on an injected fault.

    The lazy path is the recovery anchor: it needs only a single-tier
    memory file and demand paging, so it always succeeds.
    ``fallback_source`` names that file; it defaults to the snapshot's own
    base, but callers that kept the original single-tier snapshot should
    pass it — it is a physically separate file, so it survives corruption
    of the tier files.  Returns the result (``fallback=True`` if recovery
    happened) plus the fault that forced the fallback, or ``None`` on a
    clean restore.
    """
    injector = faults.resolve(injector)
    try:
        if isinstance(snapshot, TieredSnapshot):
            return tiered_restore(snapshot, memory=memory, injector=injector), None
        if isinstance(snapshot, ReapSnapshot):
            return reap_restore(snapshot, memory=memory, injector=injector), None
        return lazy_restore(snapshot, memory=memory), None
    except FaultInjected as exc:
        base = fallback_source
        if base is None:
            base = snapshot.base if hasattr(snapshot, "base") else snapshot
        result = lazy_restore(base, memory=memory)
        return replace(result, fallback=True), exc
