"""The deterministic event loop and its process coroutines.

Everything in the simulation happens as an event on one timeline.  Events
are ordered by ``(time, priority, seq)``: simulated time first, then an
explicit priority band (releases before arrivals before emissions, so
bookkeeping that "happened by" time *t* is visible to decisions made *at*
*t*), then a monotonically increasing sequence number that makes
simultaneous same-band events FIFO — scheduling order is replay order,
always.

Processes are plain generators that ``yield`` :class:`Delay` commands;
the loop resumes a process when its delay has elapsed.  This keeps the
kernel free of threads and real time: a million simulated seconds cost
whatever the event count costs, nothing sleeps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

import numpy as np

from ..errors import ConfigError

__all__ = [
    "PRIORITY_RELEASE",
    "PRIORITY_EMIT",
    "PRIORITY_ARRIVAL",
    "PRIORITY_DEFAULT",
    "Delay",
    "Process",
    "EventLoop",
]

PRIORITY_RELEASE = 0
"""Capacity-lease releases and count decrements: state that held
*until* time t is gone before anything decides at t."""

PRIORITY_EMIT = 1
"""Telemetry emissions: observations of completed facts order before new
decisions at the same instant."""

PRIORITY_ARRIVAL = 2
"""Arrivals and other decision-making events."""

PRIORITY_DEFAULT = 3
"""Everything else (process resumptions, plain callbacks)."""


@dataclass(frozen=True)
class Delay:
    """Suspend the yielding process for ``seconds`` of simulated time."""

    seconds: float


ProcessBody = Generator[Delay, None, Any]


class Process:
    """One running coroutine on the loop.

    Created through :meth:`EventLoop.spawn`; ``done`` flips when the
    generator is exhausted and ``result`` carries its ``return`` value.
    """

    def __init__(self, loop: "EventLoop", body: ProcessBody, name: str) -> None:
        self._loop = loop
        self._body = body
        self.name = name
        self.done = False
        self.result: Any = None
        self.started_at = loop.now
        self.finished_at: float | None = None

    def _step(self, _now: float) -> None:
        """Advance the generator by one command."""
        try:
            command = next(self._body)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.finished_at = self._loop.now
            return
        if not isinstance(command, Delay):  # pragma: no cover - defensive
            raise ConfigError(f"process {self.name!r} yielded {command!r}")
        self._loop.schedule(command.seconds, self._step)


@dataclass(order=True, slots=True)
class _Entry:
    time: float
    priority: int
    seq: int
    callback: Callable[[float], None] = field(compare=False)
    category: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class EventLoop:
    """A stable-ordered discrete-event loop.

    * :meth:`schedule` queues a callback after a non-negative delay;
      :meth:`schedule_at` queues at an absolute time (never in the past).
    * :meth:`run` drains the heap; :meth:`run_while_category` drains only
      while events of one category remain queued, for callers that
      interleave simulated batches with carried-over state.
    * Determinism: identical schedules replay identically — the heap key
      is ``(time, priority, seq)`` and ``seq`` is assigned at scheduling
      time, so ties never compare callbacks.
    """

    def __init__(self, *, start_s: float = 0.0) -> None:
        if start_s < 0:
            raise ConfigError("simulation cannot start before t=0")
        self.now = float(start_s)
        self._heap: list[_Entry] = []
        self._seq = 0
        self._live: dict[str, int] = {}
        self.processed = 0

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self,
        delay_s: float,
        callback: Callable[[float], None],
        *,
        priority: int = PRIORITY_DEFAULT,
        category: str = "",
    ) -> _Entry:
        """Queue ``callback(now)`` after ``delay_s`` simulated seconds."""
        if delay_s < 0:
            raise ConfigError(f"cannot schedule {delay_s} s in the past")
        return self.schedule_at(
            self.now + delay_s, callback, priority=priority, category=category
        )

    def schedule_at(
        self,
        at_s: float,
        callback: Callable[[float], None],
        *,
        priority: int = PRIORITY_DEFAULT,
        category: str = "",
    ) -> _Entry:
        """Queue ``callback(at_s)`` at an absolute simulated time."""
        if at_s < self.now:
            raise ConfigError(
                f"cannot schedule at t={at_s:.6f}s, now is t={self.now:.6f}s"
            )
        entry = _Entry(float(at_s), priority, self._seq, callback, category)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self._live[category] = self._live.get(category, 0) + 1
        return entry

    def schedule_batch(
        self,
        at_times: "Sequence[float] | np.ndarray",
        callback: Callable[[float], None],
        *,
        priority: int = PRIORITY_DEFAULT,
        category: str = "",
    ) -> list[_Entry]:
        """Queue one shared ``callback`` at each absolute time, in bulk.

        Equivalent to calling :meth:`schedule_at` once per time in input
        order — sequence numbers are assigned in that order, so ties
        drain FIFO exactly as the scalar calls would — but validates the
        whole cohort with one vectorized comparison and restores the heap
        invariant with a single ``heapify`` (O(heap) instead of
        O(n log heap)).  The heap's *internal* layout differs from
        repeated pushes; its pop order — the only observable — does not.
        """
        times = np.asarray(at_times, dtype=np.float64)
        if times.ndim != 1:
            raise ConfigError("batch schedule times must be one-dimensional")
        if times.size == 0:
            return []
        if float(times.min()) < self.now:
            raise ConfigError(
                f"cannot schedule at t={float(times.min()):.6f}s, "
                f"now is t={self.now:.6f}s"
            )
        entries = []
        seq = self._seq
        for t in times.tolist():
            entries.append(_Entry(t, priority, seq, callback, category))
            seq += 1
        self._seq = seq
        self._heap.extend(entries)
        heapq.heapify(self._heap)
        self._live[category] = self._live.get(category, 0) + len(entries)
        return entries

    def spawn(self, body: ProcessBody, *, name: str = "process") -> Process:
        """Start a process coroutine; its first step runs as an event."""
        process = Process(self, body, name)
        self.schedule(0.0, process._step)
        return process

    # -- execution -------------------------------------------------------------

    def _pop(self) -> _Entry | None:
        while self._heap:
            entry = heapq.heappop(self._heap)
            if not entry.cancelled:
                self._live[entry.category] = self._live.get(entry.category, 1) - 1
                return entry
        return None

    def _dispatch(self, entry: _Entry) -> None:
        self.now = entry.time
        self.processed += 1
        entry.callback(entry.time)

    def cancel(self, entry: _Entry) -> None:
        """Cancel a queued event (it stays in the heap but never fires)."""
        if not entry.cancelled:
            entry.cancelled = True
            self._live[entry.category] = self._live.get(entry.category, 1) - 1

    def live_count(self, category: str) -> int:
        """Number of queued, uncancelled events in one category."""
        return max(0, self._live.get(category, 0))

    def run(self) -> float:
        """Drain every event; returns the final simulated time."""
        while (entry := self._pop()) is not None:
            self._dispatch(entry)
        return self.now

    def run_while_category(self, category: str) -> float:
        """Drain events while any event of ``category`` remains queued.

        The platform uses this to stop once no arrival-category events
        remain, so state that outlives the batch (capacity leases) can be
        carried over instead of force-expired.
        """
        while self.live_count(category) > 0:
            entry = self._pop()
            if entry is None:
                break
            self._dispatch(entry)
        return self.now

    def drain_category(self, category: str) -> int:
        """Run only the remaining events of one category, in heap order.

        Used to flush deferred telemetry emissions that time-stamp past
        the final arrival; other remaining events are left untouched.
        Returns the number of events run.
        """
        remaining: list[_Entry] = []
        ran = 0
        while (entry := self._pop()) is not None:
            if entry.category == category:
                self._dispatch(entry)
                ran += 1
            else:
                remaining.append(entry)
        for entry in remaining:
            heapq.heappush(self._heap, entry)
            self._live[entry.category] = self._live.get(entry.category, 0) + 1
        return ran
