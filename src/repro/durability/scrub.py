"""The background scrubber: periodic integrity reads on the event loop.

A scrub pass walks every registered snapshot copy chunk by chunk,
re-reading content and comparing each chunk's digest against the trusted
:class:`~repro.durability.chunks.ChunkIndex`.  Each copy's scan is a
chain of callbacks on the deterministic
:class:`~repro.sim.loop.EventLoop`, one per chunk, and each chunk draws
its read operations from the pass's one SSD
:class:`~repro.sim.resources.TokenBucket`, so the scans of a pass queue
behind each other; nothing else draws from that bucket.  The bucket
*is* the rate limit: a pass can never read faster than the device turns
over operations, and scanning more copies stretches the pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..sim.loop import EventLoop
from ..sim.resources import TokenBucket
from ..vm.snapshot import SingleTierSnapshot
from .chunks import DEFAULT_CHUNK_PAGES, ChunkIndex

__all__ = ["ScrubConfig", "ScrubReport", "run_scrub_pass"]


@dataclass(frozen=True)
class ScrubConfig:
    """Tuning for the background scrubber."""

    interval_s: float = 2.0
    """Simulated seconds between scrub passes over the registered copies."""

    chunk_pages: int = DEFAULT_CHUNK_PAGES
    """Verification/repair granularity (pages per chunk digest)."""

    ops_per_page: float = 1.0
    """SSD operations one scrubbed page costs (scrub reads are mostly
    sequential; values below 1.0 model read-ahead coalescing)."""

    def __post_init__(self) -> None:
        if not 0 < self.interval_s < math.inf:
            raise ConfigError("scrub interval_s must be positive and finite")
        if not (isinstance(self.chunk_pages, int) and self.chunk_pages >= 1):
            raise ConfigError("scrub chunk_pages must be an integer >= 1")
        if not 0 < self.ops_per_page < math.inf:
            raise ConfigError("scrub ops_per_page must be positive and finite")


@dataclass
class ScrubReport:
    """What one scrub pass read and found."""

    started_s: float
    finished_s: float = 0.0
    copies_scanned: int = 0
    chunks_scanned: int = 0
    ops_consumed: float = 0.0
    queued_s: float = 0.0
    """Token-bucket backlog the pass absorbed (contention between the
    pass's copy scans on the one SSD bucket)."""
    bad: list[tuple[int, list[int]]] = field(default_factory=list)
    """``(copy_id, bad_chunk_ids)`` per copy with detected damage."""

    @property
    def duration_s(self) -> float:
        """Wall (simulated) time the pass took."""
        return self.finished_s - self.started_s


def _schedule_scan(
    loop: EventLoop,
    copy_id: int,
    snapshot: SingleTierSnapshot,
    index: ChunkIndex,
    bucket: TokenBucket,
    cfg: ScrubConfig,
    report: ScrubReport,
) -> None:
    """Queue one copy's scan: one callback per chunk, then the check.

    Each chunk's callback debits its reads from the shared bucket and
    queues the next step after the chunk's uncontended device time (ops
    at the bucket's nominal rate) plus whatever backlog the bucket
    already carries.  Detection compares the whole copy's live digests
    once the scan I/O has been paid — the damage set is what the reads
    saw.
    """
    chunk = 0

    def step(_now: float) -> None:
        nonlocal chunk
        if chunk == index.n_chunks:
            bad = [int(c) for c in np.asarray(index.bad_chunks(snapshot))]
            report.copies_scanned += 1
            if bad:
                report.bad.append((copy_id, bad))
            return
        start, end = index.chunk_bounds(chunk)
        chunk += 1
        ops = (end - start) * cfg.ops_per_page
        wait = bucket.consume(ops)
        report.queued_s += wait
        report.ops_consumed += ops
        report.chunks_scanned += 1
        loop.schedule(ops / bucket.rate_per_s + wait, step)

    loop.schedule(0.0, step)


def run_scrub_pass(
    copies: list[tuple[int, SingleTierSnapshot, ChunkIndex]],
    cfg: ScrubConfig,
    *,
    ssd_iops: float,
    start_s: float = 0.0,
) -> ScrubReport:
    """Run one full scrub pass over ``copies`` on a fresh event loop.

    The pass builds one SSD token bucket refilling at ``ssd_iops``
    operations per second.  All copies scan concurrently and queue on
    that bucket; the report's ``duration_s`` is when the last scan
    finished.
    """
    loop = EventLoop(start_s=start_s)
    bucket = TokenBucket("ssd", ssd_iops, loop=loop)
    report = ScrubReport(started_s=start_s)
    for copy_id, snapshot, index in copies:
        _schedule_scan(loop, copy_id, snapshot, index, bucket, cfg, report)
    report.finished_s = loop.run()
    report.bad.sort()
    return report
