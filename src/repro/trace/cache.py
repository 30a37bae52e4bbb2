"""Byte-budget LRU cache for synthesised invocation traces.

Trace synthesis is deterministic in ``(function, input, invocation seed,
root seed)`` — every stream the synthesiser draws from is derived from
exactly that tuple — yet the experiments re-synthesise the same traces
over and over: Figure 9 replays one seed range through four systems
(DRAM, TOSS, REAP best/worst), so three quarters of its synthesis work
is recomputation.  Traces are immutable, so handing the same object to
every system is safe and their ``cached_property`` views are shared too.

The cache is bounded by *bytes*, not entries: a trace's int32 columns
cost 8 bytes per page-epoch, so one pyaes input-IV trace is ~88 KB while
a pagerank one is ~11 MB, and an entry-count bound would either thrash
on big traces or hoard memory on small ones.  At the
default 1.5 GB budget both a full C=1000 seed range of the Figure 9
function *and* the fleet study's full profiling working set (334 traces,
~0.39 GB across the Table I + extended suites at 30 requests per
function) fit, which turns repeated preparation passes into one
synthesis pass each.  The old 256 MB default thrashed at fleet scale:
334 synthesis misses per ``fleet_study`` run with an ~8 % hit rate.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .events import InvocationTrace

__all__ = ["TraceCache", "shared_trace_cache"]

DEFAULT_BUDGET_BYTES = 1536 * 1024 * 1024


def _trace_nbytes(trace: "InvocationTrace") -> int:
    """Approximate retained size: the flat int32 page/count columns
    dominate, 8 bytes per page-epoch."""
    return trace.pages.nbytes + trace.counts.nbytes or 1


class TraceCache:
    """LRU over synthesised traces, evicting by total retained bytes."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        if budget_bytes < 0:
            raise ConfigError("trace-cache budget must be non-negative")
        self.budget_bytes = int(budget_bytes)
        self._entries: OrderedDict[Hashable, tuple["InvocationTrace", int]] = (
            OrderedDict()
        )
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> "InvocationTrace | None":
        """Look up a trace, refreshing its recency on a hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Hashable, trace: "InvocationTrace") -> None:
        """Insert a trace, evicting least-recently-used entries to fit.

        A trace bigger than the whole budget is not cached at all —
        admitting it would evict everything for a single entry that can
        never be amortised.
        """
        size = _trace_nbytes(trace)
        if size > self.budget_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        while self._bytes + size > self.budget_bytes and self._entries:
            _, (_, evicted_size) = self._entries.popitem(last=False)
            self._bytes -= evicted_size
            self.evictions += 1
        self._entries[key] = (trace, size)
        self._bytes += size

    def clear(self) -> None:
        """Drop every cached trace (counters survive)."""
        self._entries.clear()
        self._bytes = 0


_SHARED = TraceCache()


def shared_trace_cache() -> TraceCache:
    """The process-wide cache :meth:`FunctionModel.trace` consults."""
    return _SHARED
