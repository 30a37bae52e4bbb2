"""The event-loop scrub pass and contention timeline, kept as references.

:func:`loop_scrub_pass` and :func:`loop_run_timeline` are the
callback-chain versions of :func:`repro.durability.scrub.run_scrub_pass`
and :meth:`repro.sim.contention.EventScheduler.run_timeline` from before
both became direct loops: the scrub pass schedules one callback per
chunk on an :class:`~repro.sim.loop.EventLoop` and draws each chunk's
reads from a token bucket; the timeline schedules every arrival up
front and keeps one cancellable completion event.  The properties in
``tests/test_event_oracles.py`` compare the loops against these field
by field; nothing in ``src/`` runs them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.durability.chunks import ChunkIndex
from repro.durability.scrub import ScrubConfig, ScrubReport
from repro.memsim.bandwidth import RESOURCES, ContentionModel
from repro.sim.contention import TimelineJob, TimelineResult, summarize_utilization
from repro.sim.loop import EventLoop
from repro.vm.snapshot import SingleTierSnapshot

__all__ = ["TokenBucket", "loop_run_timeline", "loop_scrub_pass"]


class TokenBucket:
    """A continuously refilling rate limiter on the loop's timeline.

    Tokens accrue at ``rate_per_s`` up to a burst of one second's worth;
    ``consume`` debits an amount (going negative is the queue) and
    returns how long the caller waits for the debt to clear.
    """

    def __init__(self, rate_per_s: float, *, loop: EventLoop) -> None:
        self.rate_per_s = float(rate_per_s)
        self.burst = float(rate_per_s)
        self.loop = loop
        self.tokens = self.burst
        self.consumed_total = 0.0
        self._last_refill = loop.now

    def consume(self, amount: float) -> float:
        elapsed = self.loop.now - self._last_refill
        assert elapsed >= 0
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate_per_s)
        self._last_refill = self.loop.now
        self.tokens -= amount
        self.consumed_total += amount
        if self.tokens >= 0:
            return 0.0
        return -self.tokens / self.rate_per_s


def _schedule_scan(
    loop: EventLoop,
    copy_id: int,
    snapshot: SingleTierSnapshot,
    index: ChunkIndex,
    bucket: TokenBucket,
    cfg: ScrubConfig,
    report: ScrubReport,
) -> None:
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
        loop.schedule_at(loop.now + (ops / bucket.rate_per_s + wait), step)

    loop.schedule_at(loop.now + 0.0, step)


def loop_scrub_pass(
    copies: list[tuple[int, SingleTierSnapshot, ChunkIndex]],
    cfg: ScrubConfig,
    *,
    ssd_iops: float,
    start_s: float = 0.0,
) -> ScrubReport:
    """One scrub pass as a per-chunk callback chain on an event loop."""
    loop = EventLoop()
    loop.now = float(start_s)
    bucket = TokenBucket(ssd_iops, loop=loop)
    report = ScrubReport(started_s=start_s)
    for copy_id, snapshot, index in copies:
        _schedule_scan(loop, copy_id, snapshot, index, bucket, cfg, report)
    report.finished_s = loop.run()
    report.bad.sort()
    return report


def loop_run_timeline(
    contention: ContentionModel, jobs: Iterable[TimelineJob]
) -> TimelineResult:
    """An open timeline as arrival and completion events on a loop."""
    ordered = sorted(jobs, key=lambda j: (j.arrival_s, j.label))
    loop = EventLoop()
    capacities = contention.capacities
    inflate = contention._inflation
    active: list[TimelineJob] = []
    times: list[float] = []
    rhos: list[list[float]] = []
    infls: list[list[float]] = []
    advance_entry = None
    last_eval = loop.now

    def offered_rho() -> list[float]:
        return [
            sum(j._rates[r] for j in active) / capacities[r] for r in RESOURCES
        ]

    def current_inflation() -> dict[str, float]:
        return dict(zip(RESOURCES, map(inflate, offered_rho())))

    def drain_elapsed(infl: dict[str, float]) -> None:
        nonlocal last_eval
        elapsed = loop.now - last_eval
        last_eval = loop.now
        if elapsed <= 0:
            return
        for job in active:
            remaining = job._remaining_wall_s(infl)
            if remaining <= 0:
                continue
            job._drain(min(1.0, elapsed / remaining))

    def reschedule() -> None:
        nonlocal advance_entry
        if advance_entry is not None:
            loop.cancel(advance_entry)
            advance_entry = None
        if not active:
            return
        rho = offered_rho()
        infl = dict(zip(RESOURCES, map(inflate, rho)))
        times.append(loop.now)
        rhos.append(rho)
        infls.append(list(infl.values()))
        horizon = min(j._remaining_wall_s(infl) for j in active)
        advance_entry = loop.schedule_at(
            loop.now + max(horizon, 0.0), advance, category="advance"
        )

    def advance(_now: float) -> None:
        nonlocal advance_entry
        advance_entry = None
        infl_before = current_inflation()
        drain_elapsed(infl_before)
        finished = [j for j in active if j._remaining_wall_s(infl_before) <= 1e-12]
        for job in finished:
            job.finish_s = loop.now
            active.remove(job)
        reschedule()

    def arrive(job: TimelineJob) -> None:
        def _fire(_now: float) -> None:
            infl_before = current_inflation()
            drain_elapsed(infl_before)
            job.start_s = loop.now
            job._activate()
            active.append(job)
            reschedule()

        loop.schedule_at(job.arrival_s, _fire)

    for job in ordered:
        arrive(job)
    loop.run()
    assert not active
    n = len(RESOURCES)
    events = (
        np.array(times, dtype=np.float64),
        np.array(rhos, dtype=np.float64).reshape(-1, n),
        np.array(infls, dtype=np.float64).reshape(-1, n),
    )
    return TimelineResult(
        jobs=tuple(ordered),
        makespan_s=loop.now,
        utilization=summarize_utilization(*events),
    )

