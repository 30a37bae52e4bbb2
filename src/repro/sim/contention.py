"""Event-driven shared-hardware contention.

Two execution modes, one hardware description
(:class:`~repro.memsim.bandwidth.ContentionModel` supplies the
per-resource capacities and the M/M/1 inflation law):

* :meth:`EventScheduler.run_synchronized` — a closed batch launched at
  one instant and measured at its contention equilibrium.  The
  equilibrium is the analytic fixed point, computed by the *same*
  solver call the old wave scheduler used, so results are byte-identical
  to the pre-kernel code; the batch's completions are then replayed in
  one vectorised pass to record per-resource occupancy over time.
* :meth:`EventScheduler.run_timeline` — an open stream of jobs with
  arbitrary arrival times.  Nothing is solved per-batch: each job drains
  its remaining CPU and per-resource stall work under the inflation
  implied by *whoever is active right now*, and the schedule re-evaluates
  whenever a job arrives or finishes.  Contention — who slowed whom, and
  when — emerges from the schedule, which is a walk over the sorted
  arrivals and the one pending completion time.

The quasi-static rate law: while active, a job offers each resource
``work / nominal_time`` operations per second (its uncontended rate);
segment inflation is the M/M/1 factor at the summed active rate.  A
single job on an otherwise idle timeline therefore lands within a
fraction of a percent of the single-demand analytic equilibrium (the
fixed point re-evaluates offered rates at the *contended* time; the
timeline pins them at the nominal time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import numpy.typing as npt

from ..errors import ConfigError
from ..memsim.bandwidth import RESOURCES, ContentionModel, TierDemand

__all__ = [
    "EventScheduler",
    "TimelineJob",
    "TimelineResult",
    "summarize_utilization",
]


def summarize_utilization(
    times: npt.NDArray[np.float64],
    rho: npt.NDArray[np.float64],
    inflation: npt.NDArray[np.float64],
) -> dict[str, dict[str, float]]:
    """Per-resource mean/peak offered load and peak inflation.

    ``times`` holds one event time per row of ``rho`` and ``inflation``
    (``(n_events, len(RESOURCES))``, columns in :data:`RESOURCES` order):
    the load each resource saw from that event until the next.  The mean
    is time-weighted over the sampled span; its area is a left fold over
    consecutive events (``np.add.accumulate``, the scalar ``+=`` order).
    With no events every resource reports the idle summary.
    """
    if not times.size:
        return {
            r: {"mean_rho": 0.0, "peak_rho": 0.0, "peak_inflation": 1.0}
            for r in RESOURCES
        }
    if times.size >= 2:
        terms = rho[:-1] * (times[1:] - times[:-1])[:, None]
        area = np.add.accumulate(terms, axis=0)[-1]
        span = float(times[-1] - times[0])
        mean = area / span if span > 0 else rho[-1]
    else:
        mean = rho[0]
    peak_rho = rho.max(axis=0)
    peak_inflation = inflation.max(axis=0)
    return {
        r: {
            "mean_rho": float(mean[j]),
            "peak_rho": float(peak_rho[j]),
            "peak_inflation": float(peak_inflation[j]),
        }
        for j, r in enumerate(RESOURCES)
    }


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
        if not 0 <= self.arrival_s < math.inf:
            raise ConfigError(
                f"jobs arrive at a finite t >= 0, not {self.arrival_s}"
            )

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
    makespan_s: float
    utilization: dict[str, dict[str, float]]
    """Per-resource mean/peak offered load and peak inflation
    (:func:`summarize_utilization`)."""


_Events = tuple[
    npt.NDArray[np.float64], npt.NDArray[np.float64], npt.NDArray[np.float64]
]
_NO_EVENTS: _Events = (
    np.empty(0),
    np.empty((0, len(RESOURCES))),
    np.empty((0, len(RESOURCES))),
)


class EventScheduler:
    """The contention engine: closed batches and open timelines."""

    def __init__(self, contention: ContentionModel) -> None:
        self.contention = contention
        # (times, rho, inflation) of the most recent run's events.
        self._events = _NO_EVENTS

    # -- closed batch (equilibrium) ---------------------------------------------

    def run_synchronized(
        self, demands: list[TierDemand]
    ) -> tuple[list[float], dict[str, float]]:
        """Launch a batch at t=0 and measure it at equilibrium.

        Returns each invocation's contended end-to-end time plus the
        converged per-resource inflation factors — byte-identical to the
        analytic model, because the equilibrium *is* the analytic solve.
        The batch's completions are then replayed, and every completion
        re-samples the per-resource offered load, which is how the
        utilization telemetry in Figure 9 is produced.
        """
        if not demands:
            self._events = _NO_EVENTS
            return [], {r: 1.0 for r in RESOURCES}
        times, inflation = self.contention._solve(demands)
        self._events = self._replay_batch(demands, times, inflation)
        return times, dict(inflation)

    def _replay_batch(
        self,
        demands: list[TierDemand],
        times: list[float],
        inflation: dict[str, float],
    ) -> _Events:
        """Replay the batch's rho trajectory, fully vectorized.

        Bit-identical to the event-loop replay it replaces: the batch
        starts with every demand's rate delta folded in left-to-right
        (``np.add.accumulate`` — the scalar ``+=`` fold), completions
        fire in the heap's ``(time, seq)`` order (a stable argsort of the
        contended times, since all finish events shared one priority and
        seq was assignment order), and each completion subtracts its
        delta sequentially (``np.subtract.accumulate``).  Returns one
        row per event — the launch at t=0 plus one per completion.
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
        return event_times, rho, np.broadcast_to(infl_row, rho.shape)

    # -- open timeline (emergent contention) ------------------------------------

    def run_timeline(self, jobs: Iterable[TimelineJob]) -> TimelineResult:
        """Serve jobs as they arrive; contention follows the schedule.

        Quasi-static fluid model: between consecutive events (an arrival
        or a completion) the active set is fixed, so each resource's
        inflation is fixed, and every active job drains its remaining
        work at the implied pace.  An arrival raises inflation mid-flight
        for everyone already running; a completion lowers it — keep-alive
        hits, prewarm completions and staggered restores interleave
        instead of being batched into waves.  Arrivals run in
        ``(arrival_s, label)`` order, and an arrival due at the pending
        completion instant runs before that completion.
        """
        ordered = sorted(jobs, key=lambda j: (j.arrival_s, j.label))
        for job in ordered:
            if not 0 <= job.arrival_s < math.inf:
                raise ConfigError(
                    f"jobs arrive at a finite t >= 0, not {job.arrival_s}"
                )
        capacities = self.contention.capacities
        inflate = self.contention._inflation
        active: list[TimelineJob] = []
        times: list[float] = []
        rhos: list[list[float]] = []
        infls: list[list[float]] = []
        infl: dict[str, float] = {}
        done_s = math.inf  # the one pending completion time
        now = last_eval = 0.0
        i = 0
        while i < len(ordered) or done_s < math.inf:
            # An arrival due at the completion instant runs first.
            arriving = i < len(ordered) and float(ordered[i].arrival_s) <= done_s
            now = float(ordered[i].arrival_s) if arriving else done_s
            elapsed = now - last_eval
            last_eval = now
            if elapsed > 0:
                for job in active:
                    remaining = job._remaining_wall_s(infl)
                    if remaining > 0:
                        job._drain(min(1.0, elapsed / remaining))
            if arriving:
                job = ordered[i]
                i += 1
                job.start_s = now
                job._activate()
                active.append(job)
            else:
                finished = [j for j in active if j._remaining_wall_s(infl) <= 1e-12]
                for job in finished:
                    job.finish_s = now
                    active.remove(job)
            done_s = math.inf
            if active:
                rho = [
                    sum(j._rates[r] for j in active) / capacities[r]
                    for r in RESOURCES
                ]
                infl = dict(zip(RESOURCES, map(inflate, rho)))
                times.append(now)
                rhos.append(rho)
                infls.append(list(infl.values()))
                horizon = min(j._remaining_wall_s(infl) for j in active)
                done_s = now + max(horizon, 0.0)
        self._events = (np.array(times), np.array(rhos), np.array(infls))
        return TimelineResult(
            jobs=tuple(ordered),
            makespan_s=now,
            utilization=self.utilization_summary(),
        )

    # -- reporting ---------------------------------------------------------------

    def utilization_summary(self) -> dict[str, dict[str, float]]:
        """Per-resource load summary of the most recent run
        (:func:`summarize_utilization` over its events; the idle summary
        after an empty one)."""
        return summarize_utilization(*self._events)
