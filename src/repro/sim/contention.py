"""Event-driven shared-hardware contention.

Two execution modes, one hardware description
(:class:`~repro.memsim.bandwidth.ContentionModel` supplies the
per-resource capacities and the M/M/1 inflation law):

* :meth:`EventScheduler.run_synchronized` — a closed batch launched at
  one instant and measured at its contention equilibrium.  The
  equilibrium is the analytic fixed point, computed by the *same*
  solver call the old wave scheduler used, so results are byte-identical
  to the pre-kernel code; the batch is then replayed on the event loop
  to record per-resource occupancy over time.
* :meth:`EventScheduler.run_timeline` — an open stream of jobs with
  arbitrary arrival times.  Nothing is solved per-batch: each job drains
  its remaining CPU and per-resource stall work under the inflation
  implied by *whoever is active right now*, and the schedule re-evaluates
  whenever a job arrives or finishes.  Contention — who slowed whom, and
  when — emerges from the event schedule.

The quasi-static rate law: while active, a job offers each resource
``work / nominal_time`` operations per second (its uncontended rate);
segment inflation is the M/M/1 factor at the summed active rate.  A
single job on an otherwise idle timeline therefore lands within a
fraction of a percent of the single-demand analytic equilibrium (the
fixed point re-evaluates offered rates at the *contended* time; the
timeline pins them at the nominal time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigError, SchedulerError
from ..memsim.bandwidth import RESOURCES, ContentionModel, TierDemand
from .batch import SampleBuffer
from .loop import EventLoop, _Entry

__all__ = [
    "EventScheduler",
    "TimelineJob",
    "TimelineResult",
    "UtilizationSample",
]


@dataclass(frozen=True)
class UtilizationSample:
    """One observation of a shared resource's load."""

    time_s: float
    resource: str
    offered_rho: float
    inflation: float


@dataclass
class TimelineJob:
    """One unit of work on the open timeline.

    ``demand`` carries the uncontended CPU time, per-resource stall
    seconds and operation counts; ``label`` is for telemetry.
    """

    arrival_s: float
    demand: TierDemand
    label: str = ""

    # -- runtime state (filled by the engine) -----------------------------------
    start_s: float = field(default=0.0, init=False)
    finish_s: float = field(default=0.0, init=False)
    _cpu_rem: float = field(default=0.0, init=False, repr=False)
    _stall_rem: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    _rates: dict[str, float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ConfigError("jobs cannot arrive before t=0")

    @property
    def contended_time_s(self) -> float:
        """Wall time the job actually took (after :meth:`run_timeline`)."""
        return self.finish_s - self.start_s

    def _activate(self) -> None:
        work = self.demand._stalls_and_work()
        self._cpu_rem = self.demand.cpu_time_s
        self._stall_rem = {r: work[r][0] for r in RESOURCES}
        nominal = max(self.demand.nominal_time_s, 1e-12)
        self._rates = {r: work[r][1] / nominal for r in RESOURCES}

    def _remaining_wall_s(self, inflation: dict[str, float]) -> float:
        total = self._cpu_rem
        for r in RESOURCES:
            total += self._stall_rem[r] * inflation[r]
        return total

    def _drain(self, fraction: float) -> None:
        keep = 1.0 - fraction
        self._cpu_rem *= keep
        for r in RESOURCES:
            self._stall_rem[r] *= keep


@dataclass(frozen=True)
class TimelineResult:
    """Outcome of an open-timeline run."""

    jobs: tuple[TimelineJob, ...]
    samples: tuple[UtilizationSample, ...]
    makespan_s: float

    def utilization_summary(self) -> dict[str, dict[str, float]]:
        """Per-resource mean/peak offered load and peak inflation."""
        return _summarize(self.samples)


def _summarize(
    samples: Sequence[UtilizationSample],
) -> dict[str, dict[str, float]]:
    summary: dict[str, dict[str, float]] = {}
    for name in RESOURCES:
        points = [s for s in samples if s.resource == name]
        if not points:
            summary[name] = {"mean_rho": 0.0, "peak_rho": 0.0, "peak_inflation": 1.0}
            continue
        # Time-weighted mean over the sampled span (step function).
        if len(points) >= 2:
            area = sum(
                p0.offered_rho * (p1.time_s - p0.time_s)
                for p0, p1 in zip(points, points[1:])
            )
            span = points[-1].time_s - points[0].time_s
            mean = area / span if span > 0 else points[-1].offered_rho
        else:
            mean = points[0].offered_rho
        summary[name] = {
            "mean_rho": mean,
            "peak_rho": max(p.offered_rho for p in points),
            "peak_inflation": max(p.inflation for p in points),
        }
    return summary


class EventScheduler:
    """The contention engine: closed batches and open timelines."""

    def __init__(self, contention: ContentionModel) -> None:
        self.contention = contention
        self._sample_buffer: SampleBuffer | None = None
        self._samples_tuple: tuple[UtilizationSample, ...] = ()

    @property
    def last_samples(self) -> tuple[UtilizationSample, ...]:
        """Telemetry samples of the most recent run.

        The batch replay records samples into a structured-array
        :class:`~repro.sim.batch.SampleBuffer`; the public
        :class:`UtilizationSample` tuple is materialized only when a
        caller actually reads this property (then cached).
        """
        buf = self._sample_buffer
        if buf is not None:
            self._samples_tuple = buf.to_samples()
            self._sample_buffer = None
        return self._samples_tuple

    # -- closed batch (equilibrium) ---------------------------------------------

    def run_synchronized(
        self, demands: list[TierDemand]
    ) -> tuple[list[float], dict[str, float]]:
        """Launch a batch at t=0 and measure it at equilibrium.

        Returns each invocation's contended end-to-end time plus the
        converged per-resource inflation factors — byte-identical to the
        analytic model, because the equilibrium *is* the analytic solve.
        The batch is then replayed on an event loop: completions are
        events, and every completion re-samples the per-resource offered
        load, which is how the utilization telemetry in Figure 9 is
        produced.
        """
        if not demands:
            return [], {r: 1.0 for r in RESOURCES}
        times, inflation = self.contention._solve(demands)
        self._sample_buffer = self._replay_batch(demands, times, inflation)
        self._samples_tuple = ()
        return times, dict(inflation)

    def _replay_batch(
        self,
        demands: list[TierDemand],
        times: list[float],
        inflation: dict[str, float],
    ) -> SampleBuffer:
        """Replay the batch's rho trajectory, fully vectorized.

        Bit-identical to the event-loop replay it replaces: the batch
        starts with every demand's rate delta folded in left-to-right
        (``np.add.accumulate`` — the scalar ``+=`` fold), completions
        fire in the heap's ``(time, seq)`` order (a stable argsort of the
        contended times, since all finish events shared one priority and
        seq was assignment order), and each completion subtracts its
        delta sequentially (``np.subtract.accumulate``).  One sample row
        per event — the launch at t=0 plus one per completion — lands in
        a pre-sized :class:`~repro.sim.batch.SampleBuffer` instead of
        ``5 (n+1)`` dataclass allocations.
        """
        n = len(demands)
        caps = self.contention.capacity_vector()
        work = self.contention.demand_work_matrix(demands)
        t = np.asarray(times, dtype=np.float64)
        delta = work / np.maximum(t, 1e-12)[:, None]
        order = np.argsort(t, kind="stable")
        steps = np.empty((n + 1, len(RESOURCES)), dtype=np.float64)
        steps[0] = np.add.accumulate(delta, axis=0)[-1]
        steps[1:] = delta[order]
        rho = np.subtract.accumulate(steps, axis=0) / caps
        event_times = np.empty(n + 1, dtype=np.float64)
        event_times[0] = 0.0
        event_times[1:] = t[order]
        infl_row = np.array(
            [inflation[r] for r in RESOURCES], dtype=np.float64
        )
        buffer = SampleBuffer(n + 1)
        buffer.fill_events(
            event_times, rho, np.broadcast_to(infl_row, rho.shape)
        )
        return buffer

    # -- open timeline (emergent contention) ------------------------------------

    def run_timeline(self, jobs: Iterable[TimelineJob]) -> TimelineResult:
        """Serve jobs as they arrive; contention follows the schedule.

        Quasi-static fluid model: between consecutive events (an arrival
        or a completion) the active set is fixed, so each resource's
        inflation is fixed, and every active job drains its remaining
        work at the implied pace.  An arrival raises inflation mid-flight
        for everyone already running; a completion lowers it — keep-alive
        hits, prewarm completions and staggered restores interleave
        instead of being batched into waves.
        """
        ordered = sorted(jobs, key=lambda j: (j.arrival_s, j.label))
        if not ordered:
            return TimelineResult(jobs=(), samples=(), makespan_s=0.0)
        loop = EventLoop()
        capacities = self.contention.capacities
        active: list[TimelineJob] = []
        samples: list[UtilizationSample] = []
        advance_entry: _Entry | None = None
        last_eval = loop.now

        def current_inflation() -> dict[str, float]:
            infl: dict[str, float] = {}
            for r in RESOURCES:
                rho = sum(j._rates[r] for j in active) / capacities[r]
                infl[r] = self.contention._inflation(rho)
            return infl

        def sample(infl: dict[str, float]) -> None:
            for r in RESOURCES:
                rho = sum(j._rates[r] for j in active) / capacities[r]
                samples.append(
                    UtilizationSample(
                        time_s=loop.now,
                        resource=r,
                        offered_rho=rho,
                        inflation=infl[r],
                    )
                )

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
            infl = current_inflation()
            sample(infl)
            horizon = min(j._remaining_wall_s(infl) for j in active)
            advance_entry = loop.schedule(
                max(horizon, 0.0), advance, category="advance"
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
        if active:  # pragma: no cover - defensive
            raise SchedulerError("timeline ended with unfinished jobs")
        self._sample_buffer = None
        self._samples_tuple = tuple(samples)
        return TimelineResult(
            jobs=tuple(ordered),
            samples=tuple(samples),
            makespan_s=loop.now,
        )

    # -- reporting ---------------------------------------------------------------

    def utilization_summary(self) -> dict[str, dict[str, float]]:
        """Per-resource load summary of the most recent run.

        Summarizes straight off the structured sample buffer when one is
        live (no :class:`UtilizationSample` materialization), falling
        back to the scalar summary over the tuple — both produce
        bit-identical numbers.
        """
        if self._sample_buffer is not None:
            return self._sample_buffer.summarize()
        return _summarize(self._samples_tuple)
