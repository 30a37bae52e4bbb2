"""Wall-clock phase profiler for the bench harness.

A sampling-free, context-managed profiler: hot spots in the simulator
(`execute_cohort`, contention solves, trace synthesis, exporters) wrap
themselves in :func:`~PhaseProfiler.phase` blocks when a profiler is
active, and the profiler accounts *self* time per phase path — elapsed
wall-clock minus the time spent in nested phases — so the per-phase
totals sum to at most the measured kernel time, never more.

Phase paths are semicolon-joined (``bench/fig9;sim/execute_cohort``),
which is exactly the collapsed-stack format flamegraph tooling eats;
:meth:`PhaseProfiler.collapsed` renders it directly.

The activation gate mirrors :mod:`repro.obs.runtime` but is deliberately
separate: the bench harness profiles with *observation off*, so what it
times carries no span or metric emission.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "PhaseProfiler",
    "PhaseStat",
    "activate",
    "active",
    "deactivate",
    "phase",
    "profiling",
]


@dataclass
class PhaseStat:
    """Accumulated self time and entry count for one phase path."""

    self_s: float = 0.0
    count: int = 0


@dataclass
class _Frame:
    path: str
    started: float
    child_s: float = 0.0


class PhaseProfiler:
    """Nested wall-clock phase accounting with self-time attribution."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        self._stack: list[_Frame] = []
        self._stats: dict[str, PhaseStat] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Account the block's wall-clock self time under ``name``.

        Nested phases extend the path with ``;`` and their elapsed time
        is *subtracted* from the parent's self time, so summing every
        phase's ``self_s`` never double-counts.
        """
        parent = self._stack[-1] if self._stack else None
        path = f"{parent.path};{name}" if parent is not None else name
        frame = _Frame(path=path, started=self._clock())
        self._stack.append(frame)
        try:
            yield
        finally:
            elapsed = self._clock() - frame.started
            self._stack.pop()
            stat = self._stats.get(path)
            if stat is None:
                stat = PhaseStat()
                self._stats[path] = stat
            stat.self_s += max(0.0, elapsed - frame.child_s)
            stat.count += 1
            if parent is not None:
                parent.child_s += elapsed

    @property
    def stats(self) -> dict[str, PhaseStat]:
        """Accumulated stats keyed by ``;``-joined phase path."""
        return self._stats

    def accounted_s(self) -> float:
        """Total self time across every phase (≤ measured wall time)."""
        return sum(stat.self_s for stat in self._stats.values())

    def to_json(self) -> dict[str, object]:
        """The ``profile`` section of the ``toss-bench/v1`` record."""
        phases: dict[str, dict[str, float | int]] = {}
        for path in sorted(self._stats):
            stat = self._stats[path]
            phases[path] = {
                "self_s": round(stat.self_s, 9),
                "count": stat.count,
            }
        return {
            "phases": phases,
            "accounted_s": round(self.accounted_s(), 9),
        }

    def collapsed(self) -> str:
        """Collapsed-stack text: ``path <self microseconds>`` per line,
        ready for ``flamegraph.pl`` / speedscope."""
        lines: list[str] = []
        for path in sorted(self._stats):
            micros = int(round(self._stats[path].self_s * 1e6))
            lines.append(f"{path} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def merge_into(self, other: "PhaseProfiler") -> None:
        """Fold this profiler's stats into ``other`` (path-wise sums)."""
        for path, stat in self._stats.items():
            target = other._stats.get(path)
            if target is None:
                target = PhaseStat()
                other._stats[path] = target
            target.self_s += stat.self_s
            target.count += stat.count


_ACTIVE: PhaseProfiler | None = None


def active() -> PhaseProfiler | None:
    """The activated profiler, or ``None`` (the zero-overhead case)."""
    return _ACTIVE


def activate(profiler: PhaseProfiler) -> PhaseProfiler:
    """Install ``profiler`` as the process-wide phase profiler."""
    global _ACTIVE
    _ACTIVE = profiler
    return profiler


def deactivate() -> None:
    """Turn phase profiling off again."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Account the block under ``name`` on the active profiler, if any.

    The hook form the instrumented hot spots use: with no profiler
    activated this is a module-global read, an ``is None`` test and a
    bare ``yield`` — the zero-overhead gate, same shape as
    :func:`repro.obs.runtime.active`.
    """
    profiler = _ACTIVE
    if profiler is None:
        yield
    else:
        with profiler.phase(name):
            yield


@contextmanager
def profiling(
    profiler: PhaseProfiler | None = None,
) -> Iterator[PhaseProfiler]:
    """Activate a profiler for a ``with`` block (fresh by default)."""
    target = profiler if profiler is not None else PhaseProfiler()
    previous = active()
    activate(target)
    try:
        yield target
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)
