"""The deterministic event loop.

Everything in the simulation happens as an event on one timeline.  Events
are ordered by ``(time, priority, seq)``: simulated time first, then an
explicit priority band (releases before arrivals before emissions, so
bookkeeping that "happened by" time *t* is visible to decisions made *at*
*t*), then a monotonically increasing sequence number that makes
simultaneous same-band events FIFO — scheduling order is replay order,
always.

Events are plain callbacks, and a callback may schedule further events.
This keeps the kernel free of threads and real time: a million simulated
seconds cost whatever the event count costs, nothing sleeps.  Event
times must be finite and not in the past; scheduling at ``NaN`` or
infinity raises :class:`~repro.errors.ConfigError`.  The serving
platform and the cluster fleet share this one timeline; computations no
outside event can reach (the contention timeline, the scrub pass) run
as direct loops instead.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError

__all__ = [
    "PRIORITY_RELEASE",
    "PRIORITY_EMIT",
    "PRIORITY_ARRIVAL",
    "PRIORITY_DEFAULT",
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
"""Everything else (plain callbacks)."""


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

    * :meth:`schedule_at` queues a callback at an absolute time (never
      in the past); :meth:`schedule_batch` queues many at once.
    * :meth:`run` drains the heap; :meth:`run_while_category` drains only
      while events of one category remain queued, so state past a
      batch's last decision stays queued for the next batch, and
      :meth:`drain_category` flushes one category without moving the
      clock.
    * Determinism: identical schedules replay identically — the heap key
      is ``(time, priority, seq)`` and ``seq`` is assigned at scheduling
      time, so ties never compare callbacks.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[_Entry] = []
        self._seq = 0
        self._live: dict[str, int] = {}

    # -- scheduling ------------------------------------------------------------

    def schedule_at(
        self,
        at_s: float,
        callback: Callable[[float], None],
        *,
        priority: int = PRIORITY_DEFAULT,
        category: str = "",
    ) -> _Entry:
        """Queue ``callback(at_s)`` at an absolute simulated time."""
        if not self.now <= at_s < math.inf:
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
        lo, hi = float(times.min()), float(times.max())
        if not (self.now <= lo and hi < math.inf):
            bad = hi if self.now <= lo else lo
            raise ConfigError(
                f"cannot schedule at t={bad:.6f}s, now is t={self.now:.6f}s"
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

        The platform and the cluster fleet use this to stop once the
        last arrival has been decided, so state that outlives the batch
        (busy cores, counts, capacity leases) stays queued for the next
        one instead of being force-expired.
        """
        while self.live_count(category) > 0:
            entry = self._pop()
            if entry is None:
                break
            self._dispatch(entry)
        return self.now

    def drain_category(self, category: str) -> None:
        """Run the remaining events of one category, in heap order, now.

        Used to flush deferred telemetry emissions that time-stamp past
        the final arrival.  Each callback still receives its own time,
        but the clock stays where it was, so the other events — left
        queued untouched — and the next batch keep their place on the
        timeline.
        """
        ours = [e for e in self._heap if e.category == category and not e.cancelled]
        for entry in ours:
            entry.cancelled = True
        self._live[category] = 0
        ours.sort()
        for entry in ours:
            entry.callback(entry.time)
