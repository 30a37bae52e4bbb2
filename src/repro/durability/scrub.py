"""The background scrubber: periodic integrity reads paced by the SSD.

A scrub pass walks every registered snapshot copy chunk by chunk,
re-reading content and comparing each chunk's digest against the trusted
:class:`~repro.durability.chunks.ChunkIndex`.  All copies scan at once
and every chunk read debits its operations from the pass's one SSD
budget: operations refill at ``ssd_iops`` per second up to one second's
worth, a debit past zero is queueing, and a chunk's scan ends after its
ops at the nominal rate plus that queueing delay.  The budget *is* the
rate limit: a pass can never read faster than the device turns over
operations, and scanning more copies stretches the pass.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .. import domains
from ..errors import ConfigError
from ..vm.snapshot import SingleTierSnapshot
from .chunks import DEFAULT_CHUNK_PAGES, ChunkIndex

__all__ = ["ScrubConfig", "ScrubReport", "run_scrub_pass"]


@dataclass(frozen=True)
class ScrubConfig:
    """Tuning for the background scrubber."""

    interval_s: float = domains.real(2.0, gt=0.0)
    """Simulated seconds between scrub passes over the registered copies."""

    chunk_pages: int = domains.count(DEFAULT_CHUNK_PAGES, least=1)
    """Verification/repair granularity (pages per chunk digest)."""

    ops_per_page: float = domains.real(1.0, gt=0.0)
    """SSD operations one scrubbed page costs (scrub reads are mostly
    sequential; values below 1.0 model read-ahead coalescing)."""

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)


@dataclass
class ScrubReport:
    """What one scrub pass read and found."""

    started_s: float
    finished_s: float = 0.0
    copies_scanned: int = 0
    chunks_scanned: int = 0
    ops_consumed: float = 0.0
    queued_s: float = 0.0
    """Seconds the pass's chunk reads queued on the SSD's operation
    budget (contention between the pass's copy scans on one device)."""
    bad: list[tuple[int, list[int]]] = field(default_factory=list)
    """``(copy_id, bad_chunk_ids)`` per copy with detected damage."""

    @property
    def duration_s(self) -> float:
        """Wall (simulated) time the pass took."""
        return self.finished_s - self.started_s


def run_scrub_pass(
    copies: list[tuple[int, SingleTierSnapshot, ChunkIndex]],
    cfg: ScrubConfig,
    *,
    ssd_iops: float,
    start_s: float = 0.0,
) -> ScrubReport:
    """Run one full scrub pass over ``copies`` starting at ``start_s``.

    The copies' chunk chains merge on one ``(time, seq, copy)`` heap, so
    simultaneous steps run in the order they were queued.  Each step
    either reads the copy's next chunk — refilling the SSD budget for
    the time since the last read, debiting the chunk's ops and queueing
    the copy's next step after the chunk's device time plus any wait —
    or, past the last chunk, compares the whole copy's live digests:
    the damage set is what the reads saw.  The report's ``duration_s``
    is when the last scan finished.
    """
    domains.check_value(
        domains.RealDomain(0.0), ssd_iops, "scrub ssd_iops", ConfigError
    )
    domains.check_value(
        domains.RealDomain(0.0, lo_open=False), start_s, "scrub start_s",
        ConfigError,
    )
    rate = float(ssd_iops)
    now = float(start_s)
    tokens = rate
    refilled_s = now
    report = ScrubReport(started_s=start_s)
    next_chunk = [0] * len(copies)
    heap: list[tuple[float, int, int]] = [(now, k, k) for k in range(len(copies))]
    seq = len(copies)
    while heap:
        now, _, k = heapq.heappop(heap)
        copy_id, snapshot, index = copies[k]
        chunk = next_chunk[k]
        if chunk == index.n_chunks:
            bad = [int(c) for c in np.asarray(index.bad_chunks(snapshot))]
            report.copies_scanned += 1
            if bad:
                report.bad.append((copy_id, bad))
            continue
        next_chunk[k] = chunk + 1
        start, end = index.chunk_bounds(chunk)
        ops = (end - start) * cfg.ops_per_page
        tokens = min(rate, tokens + (now - refilled_s) * rate)
        refilled_s = now
        tokens -= ops
        wait = 0.0 if tokens >= 0 else -tokens / rate
        report.queued_s += wait
        report.ops_consumed += ops
        report.chunks_scanned += 1
        heapq.heappush(heap, (now + (ops / rate + wait), seq, k))
        seq += 1
    report.finished_s = now
    report.bad.sort()
    return report
