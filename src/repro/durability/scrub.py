"""The background scrubber: periodic integrity reads on the event loop.

A scrub pass walks every registered snapshot copy chunk by chunk,
re-reading content and comparing each chunk's digest against the trusted
:class:`~repro.durability.chunks.ChunkIndex`.  Each
:func:`scrub_process` runs as a coroutine on the deterministic
:class:`~repro.sim.loop.EventLoop` and draws its per-chunk read
operations from the pass's one SSD
:class:`~repro.sim.resources.TokenBucket`, so the scans of a pass queue
behind each other; nothing else draws from that bucket.  The bucket
*is* the rate limit: a pass can never read faster than the device turns
over operations, and scanning more copies stretches the pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from ..errors import ConfigError
from ..sim.loop import Delay, EventLoop
from ..sim.resources import TokenBucket
from ..vm.snapshot import SingleTierSnapshot
from .chunks import DEFAULT_CHUNK_PAGES, ChunkIndex

__all__ = ["ScrubConfig", "ScrubReport", "scrub_process", "run_scrub_pass"]


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
        if self.interval_s <= 0:
            raise ConfigError("scrub interval_s must be positive")
        if self.chunk_pages < 1:
            raise ConfigError("scrub chunk_pages must be >= 1")
        if self.ops_per_page <= 0:
            raise ConfigError("scrub ops_per_page must be positive")


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
    pass's scan coroutines on the one SSD bucket)."""
    bad: list[tuple[int, list[int]]] = field(default_factory=list)
    """``(copy_id, bad_chunk_ids)`` per copy with detected damage."""

    @property
    def duration_s(self) -> float:
        """Wall (simulated) time the pass took."""
        return self.finished_s - self.started_s


def scrub_process(
    copy_id: int,
    snapshot: SingleTierSnapshot,
    index: ChunkIndex,
    bucket: TokenBucket,
    cfg: ScrubConfig,
    report: ScrubReport,
) -> Generator[Delay, None, list[int]]:
    """Scan one snapshot copy chunk by chunk; returns its bad chunks.

    One ``Delay`` per chunk: the chunk's uncontended device time (ops at
    the bucket's nominal rate) plus whatever backlog the shared bucket
    already carries.  Detection compares the whole copy's live digests
    once the scan I/O has been paid — the damage set is what the reads
    saw.
    """
    for chunk in range(index.n_chunks):
        start, end = index.chunk_bounds(chunk)
        ops = (end - start) * cfg.ops_per_page
        wait = bucket.consume(ops)
        report.queued_s += wait
        report.ops_consumed += ops
        report.chunks_scanned += 1
        yield Delay(ops / bucket.rate_per_s + wait)
    bad = [int(c) for c in np.asarray(index.bad_chunks(snapshot))]
    report.copies_scanned += 1
    if bad:
        report.bad.append((copy_id, bad))
    return bad


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
        loop.spawn(
            scrub_process(copy_id, snapshot, index, bucket, cfg, report),
            name=f"scrub/{copy_id}",
        )
    report.finished_s = loop.run()
    report.bad.sort()
    return report
