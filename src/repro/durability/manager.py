"""The durability manager: aging, scrubbing and the repair ladder.

:class:`DurabilityManager` is the cluster's durability plane.  It tracks
every at-rest snapshot copy in the fleet (the single-tier file on each
holder's SSD, the tiered base file in each holder's slow tier), ages
them with the active plan's :class:`~repro.faults.BitRotSpec` through
the ordinary media entry points
(:meth:`repro.memsim.storage.StorageDevice.age_at_rest`,
:meth:`repro.memsim.tiers.MemorySystem.age_at_rest`), and runs periodic
scrub passes (:mod:`.scrub`) that drive the repair ladder:

1. **Replica repair** — fetch each bad chunk from any copy whose chunk
   digests match (a replica on a reachable host, or the host's own
   sibling file when its content is identical).  Chunk-granular: only
   ``chunk_pages`` pages move per bad chunk.
2. **Re-snapshot** — a tiered file damaged beyond replica repair, with
   an intact local single-tier file, degrades the function back to
   profiling (:meth:`~repro.core.toss.TossController.force_reprofile`);
   the tiered snapshot is regenerated from clean content.
3. **Evict** — all local files damaged: the controller evicts its
   snapshots.  When a clean copy survives on another live holder, the
   function is marked ``rebuilt-cold`` and a re-replication copy is
   scheduled through the cluster's existing
   :class:`~repro.cluster.placement.Replacement` bookkeeping (the same
   pipeline host crashes use).  With no clean copy anywhere the loss is
   ``evicted-unrecoverable`` — true data loss, the quantity the
   durability experiment sweeps.

Every injected corruption is recorded in a
:class:`~repro.durability.events.DurabilityLedger` and ends with a typed
detection (``scrub`` or ``restore``) and outcome;
``ledger.unaccounted() == 0`` after :meth:`finalize` is the
no-corruption-lost invariant, mirroring the cluster's no-request-lost
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..memsim.storage import OPTANE_SSD_SPEC, StorageDevice
from ..memsim.tiers import Tier
from ..obs import runtime as obs_runtime
from ..vm.snapshot import SingleTierSnapshot
from .chunks import ChunkIndex
from .events import CorruptionEvent, DurabilityLedger
from .scrub import ScrubConfig, ScrubReport, run_scrub_pass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.fleet import ClusterPlatform
    from ..core.toss import TossController
    from ..faults.injector import FaultInjector

__all__ = ["DurabilityManager", "TrackedCopy"]

SINGLE = "single"
TIERED = "tiered"


@dataclass
class TrackedCopy:
    """One physical at-rest snapshot copy under durability tracking."""

    host: int
    function: str
    kind: str
    """``"single"`` (the SSD memory file) or ``"tiered"`` (the slow-tier
    base file)."""
    snapshot: SingleTierSnapshot
    index: ChunkIndex
    media: str
    registered_s: float
    last_aged_s: float
    open_events: list[CorruptionEvent] = field(default_factory=list)
    """Injected corruptions on this copy not yet detected/resolved."""

    @property
    def key(self) -> tuple[int, str, str]:
        """The tracking key ``(host, function, kind)``."""
        return (self.host, self.function, self.kind)


class DurabilityManager:
    """Drives at-rest aging, scrub passes and repairs for one fleet."""

    def __init__(
        self, cluster: "ClusterPlatform", scrub: ScrubConfig | None = None
    ) -> None:
        self.cluster = cluster
        self.cfg = scrub if scrub is not None else ScrubConfig()
        self.ledger = DurabilityLedger()
        self.reports: list[ScrubReport] = []
        self.copies: dict[tuple[int, str, str], TrackedCopy] = {}
        # Each scrub pass reads through its own bucket at the SSD's random
        # read rate; its scans queue only behind each other.
        self._ssd_iops = OPTANE_SSD_SPEC.random_read_iops
        self._devices: dict[int, StorageDevice] = {}
        self._next_scrub_s = self.cfg.interval_s
        self._clock_s = 0.0

    # -- plumbing ---------------------------------------------------------------

    def _injector(self, hid: int) -> "FaultInjector | None":
        return self.cluster.hosts[hid].platform.faults

    def _device(self, hid: int) -> StorageDevice:
        """The host's snapshot storage device (its bit-rot entry point)."""
        device = self._devices.get(hid)
        if device is None:
            device = StorageDevice(injector=self._injector(hid))
            self._devices[hid] = device
        return device

    def _controller(self, hid: int, function: str) -> "TossController":
        return (
            self.cluster.hosts[hid].platform.deployments[function].controller
        )

    # -- copy discovery ---------------------------------------------------------

    def refresh(self, t_s: float) -> None:
        """Reconcile tracking with the fleet's current snapshot files.

        New files (first snapshot, regeneration, replication copies) are
        registered — and their write draws the torn-write fault.  Files
        that vanished or were replaced were regenerated by the serving
        path (restore-failure degradation or re-profiling), so their
        open corruptions are stamped detected-by-restore and resolved as
        re-snapshots.
        """
        for host in self.cluster.hosts:
            for name, dep in host.platform.deployments.items():
                ctl = dep.controller
                tiered = ctl.tiered_snapshot
                self._refresh_copy(
                    t_s, host.hid, name, SINGLE, ctl.single_snapshot, "ssd"
                )
                self._refresh_copy(
                    t_s,
                    host.hid,
                    name,
                    TIERED,
                    None if tiered is None else tiered.base,
                    ctl.memory.slow.media_class,
                )

    def _refresh_copy(
        self,
        t_s: float,
        hid: int,
        function: str,
        kind: str,
        snapshot: SingleTierSnapshot | None,
        media: str,
    ) -> None:
        key = (hid, function, kind)
        tracked = self.copies.get(key)
        if tracked is not None and (
            snapshot is None or tracked.snapshot is not snapshot
        ):
            # The file this copy tracked is gone: the serving path
            # replaced it (degradation or re-profiling regenerated it).
            self._resolve_open(tracked, "restore", "re-snapshot", t_s)
            del self.copies[key]
            tracked = None
        if snapshot is None or tracked is not None:
            return
        copy = TrackedCopy(
            host=hid,
            function=function,
            kind=kind,
            snapshot=snapshot,
            index=ChunkIndex.for_snapshot(snapshot, self.cfg.chunk_pages),
            media=media,
            registered_s=t_s,
            last_aged_s=t_s,
        )
        self.copies[key] = copy
        injector = self._injector(hid)
        if injector is not None and not injector.is_zero:
            pages = injector.tear_write(snapshot)
            if pages.size:
                self._inject(copy, t_s, "torn-write", int(pages.size))

    # -- aging ------------------------------------------------------------------

    def _age_all(self, t_s: float) -> None:
        """Age every tracked copy at rest up to ``t_s``."""
        for key in sorted(self.copies):
            copy = self.copies[key]
            residency = t_s - copy.last_aged_s
            if residency <= 0.0:
                continue
            copy.last_aged_s = t_s
            injector = self._injector(copy.host)
            if injector is None or injector.is_zero:
                continue
            sectors_before = injector.counters["latent_sectors"]
            if copy.kind == SINGLE:
                pages = self._device(copy.host).age_at_rest(
                    copy.snapshot, residency
                )
            else:
                ctl = self._controller(copy.host, copy.function)
                pages = ctl.memory.age_at_rest(
                    copy.snapshot, residency, tier=Tier.SLOW
                )
            if pages.size:
                sector_hit = (
                    injector.counters["latent_sectors"] > sectors_before
                )
                cause = "latent-sector" if sector_hit else "bitrot"
                self._inject(copy, t_s, cause, int(pages.size))

    def _inject(
        self, copy: TrackedCopy, t_s: float, cause: str, pages: int
    ) -> None:
        event = self.ledger.record(
            CorruptionEvent(
                injected_s=t_s,
                host=copy.host,
                function=copy.function,
                copy=copy.kind,
                cause=cause,
                pages=pages,
            )
        )
        copy.open_events.append(event)
        obs = obs_runtime.active()
        if obs is not None:
            obs.metrics.counter(
                "toss_durability_rot_pages_total",
                "Snapshot pages corrupted at rest, by media and cause",
            ).inc(float(pages), media=copy.media, cause=cause)

    # -- the clock --------------------------------------------------------------

    def scrub_boundaries(self, horizon_s: float) -> list[float]:
        """Scrub tick times up to ``horizon_s`` (for wave splitting)."""
        ticks = []
        t = self._next_scrub_s
        while t <= horizon_s:
            ticks.append(t)
            t += self.cfg.interval_s
        return ticks

    def advance_to(self, t_s: float) -> None:
        """Advance the durability clock: register, age, and run due
        scrub passes up to ``t_s``."""
        t_s = max(t_s, self._clock_s)
        # New files are discovered *at* the advance target: a copy ages
        # only between boundaries at which it demonstrably existed.
        self.refresh(t_s)
        while self._next_scrub_s <= t_s:
            tick = self._next_scrub_s
            self._age_all(tick)
            self._scrub(tick)
            self._next_scrub_s += self.cfg.interval_s
        self._age_all(t_s)
        self._clock_s = t_s

    def finalize(self, t_s: float) -> None:
        """Settle the run: age to ``t_s``, then scrub until every
        injected corruption has a typed detection and outcome."""
        self.advance_to(t_s)
        self.refresh(t_s)
        if self.ledger.unaccounted():
            self._scrub(t_s, include_unreachable=True)

    # -- scrubbing and repair ---------------------------------------------------

    def _scrub(self, t_s: float, *, include_unreachable: bool = False) -> None:
        """One scrub pass over the scannable copies, then repairs."""
        ordered = [self.copies[key] for key in sorted(self.copies)]
        scannable = [
            c
            for c in ordered
            if include_unreachable
            or self.cluster.hosts[c.host].reachable_at(t_s)
        ]
        if not scannable:
            return
        obs = obs_runtime.active()
        if obs is None:
            report = self._run_pass(scannable, t_s)
        else:
            with obs.tracer.span(
                "scrub/pass", attrs={"copies": len(scannable)}
            ) as span:
                report = self._run_pass(scannable, t_s)
                span.attrs["chunks"] = report.chunks_scanned
                span.attrs["bad_copies"] = len(report.bad)
                span.attrs["queued_s"] = report.queued_s
            obs.metrics.counter(
                "toss_durability_scrub_passes_total",
                "Background scrub passes completed",
            ).inc()
            obs.metrics.counter(
                "toss_durability_scrub_chunks_total",
                "Snapshot chunks read by background scrubbing",
            ).inc(float(report.chunks_scanned))
        # Repair singles before tiereds so the re-snapshot rung consults
        # an already-repaired single-tier file.
        damaged = sorted(
            report.bad,
            key=lambda item: (
                scannable[item[0]].host,
                scannable[item[0]].function,
                scannable[item[0]].kind != SINGLE,
            ),
        )
        for copy_id, bad in damaged:
            copy = scannable[copy_id]
            if copy.key in self.copies:  # may have been evicted already
                self._repair(copy, bad, report.finished_s)

    def _run_pass(
        self, scannable: list[TrackedCopy], t_s: float
    ) -> ScrubReport:
        report = run_scrub_pass(
            [(i, c.snapshot, c.index) for i, c in enumerate(scannable)],
            self.cfg,
            ssd_iops=self._ssd_iops,
            start_s=t_s,
        )
        self.reports.append(report)
        return report

    def _detect_open(self, copy: TrackedCopy, by: str, t_s: float) -> None:
        obs = obs_runtime.active()
        for event in copy.open_events:
            if not event.detected_by and obs is not None:
                obs.metrics.counter(
                    "toss_durability_detected_total",
                    "Corruption events by first detection source",
                ).inc(by=by)
            event.detect(by, t_s)

    def _resolve_open(
        self, copy: TrackedCopy, by: str, outcome: str, t_s: float
    ) -> None:
        self._detect_open(copy, by, t_s)
        obs = obs_runtime.active()
        for event in copy.open_events:
            event.resolve(outcome, t_s)
            if obs is not None:
                obs.metrics.counter(
                    "toss_durability_repairs_total",
                    "Corruption resolutions by repair-ladder outcome",
                ).inc(method=outcome)
        if outcome == "evicted-unrecoverable" and obs is not None:
            obs.metrics.counter(
                "toss_durability_unrecoverable_total",
                "Corruption events lost with no clean copy anywhere",
            ).inc(float(len(copy.open_events)))
        copy.open_events = []

    def _sources_for(
        self, copy: TrackedCopy, t_s: float
    ) -> list[TrackedCopy]:
        """Copies sharing this copy's content (chunk-digest equality) a
        repair can fetch from: any reachable replica, or a local sibling
        file with identical content."""
        sources = []
        for key in sorted(self.copies):
            other = self.copies[key]
            if other is copy:
                continue
            if other.function != copy.function:
                continue
            if other.host != copy.host and not self.cluster.hosts[
                other.host
            ].reachable_at(t_s):
                continue
            if other.index.n_pages != copy.index.n_pages:
                continue
            if not np.array_equal(other.index.digests, copy.index.digests):
                continue
            sources.append(other)
        return sources

    def _repair(
        self, copy: TrackedCopy, bad: list[int], t_s: float
    ) -> None:
        """Drive one damaged copy down the repair ladder."""
        self._detect_open(copy, "scrub", t_s)

        # Rung 1: chunk repair from any content-matching copy.
        sources = self._sources_for(copy, t_s)
        unrepaired = [
            chunk
            for chunk in bad
            if not any(
                copy.index.repair_chunk(copy.snapshot, src.snapshot, chunk)
                for src in sources
            )
        ]
        if not unrepaired:
            self._resolve_open(copy, "scrub", "repaired-replica", t_s)
            return

        # Rung 2: regenerate a damaged tiered file from an intact local
        # single-tier file (degrade to profiling; the pipeline rebuilds).
        ctl = self._controller(copy.host, copy.function)
        if copy.kind == TIERED:
            single = self.copies.get((copy.host, copy.function, SINGLE))
            single_clean = (
                single is not None
                and single.index.bad_chunks(single.snapshot).size == 0
            )
            if single_clean and ctl.force_reprofile("scrub-corruption"):
                self._resolve_open(copy, "scrub", "re-snapshot", t_s)
                del self.copies[copy.key]
                return

        # Rung 3: nothing clean locally — evict all local files.  With a
        # clean copy of the function on another live holder (any content
        # generation: a whole-file restore does not need digest-matching
        # chunks) this is a cold rebuild plus a re-replication copy
        # through the crash-repair pipeline; with none, it is an
        # unrecoverable loss.
        clean_elsewhere = any(
            other.function == copy.function
            and other.host != copy.host
            and self.cluster.hosts[other.host].reachable_at(t_s)
            and other.index.bad_chunks(other.snapshot).size == 0
            for other in self.copies.values()
        )
        ctl.evict_snapshots(
            "scrub-unrecoverable"
            if not clean_elsewhere
            else "scrub-rebuild"
        )
        outcome = (
            "rebuilt-cold" if clean_elsewhere else "evicted-unrecoverable"
        )
        for kind in (SINGLE, TIERED):
            local = self.copies.pop((copy.host, copy.function, kind), None)
            if local is not None:
                self._resolve_open(local, "scrub", outcome, t_s)
        if clean_elsewhere:
            self.cluster.schedule_re_replication(
                copy.function, copy.host, t_s
            )

    # -- reporting --------------------------------------------------------------

    def unaccounted(self) -> int:
        """Corruption events without typed detection/outcome stamps."""
        return self.ledger.unaccounted()

    def summary(self) -> dict[str, float | int]:
        """Ledger roll-up for experiment tables."""
        ledger = self.ledger
        return {
            "events": len(ledger.events),
            "pages": sum(e.pages for e in ledger.events),
            "detected_scrub": ledger.detected_by("scrub"),
            "detected_restore": ledger.detected_by("restore"),
            "repaired_replica": ledger.resolved("repaired-replica"),
            "re_snapshot": ledger.resolved("re-snapshot"),
            "rebuilt_cold": ledger.resolved("rebuilt-cold"),
            "unrecoverable": ledger.unrecoverable,
            "unaccounted": ledger.unaccounted(),
            "scrub_passes": len(self.reports),
            "scrub_chunks": sum(r.chunks_scanned for r in self.reports),
            "scrub_queued_s": sum(r.queued_s for r in self.reports),
        }
