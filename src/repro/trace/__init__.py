"""Memory-access traces.

An invocation's memory behaviour is represented as an
:class:`InvocationTrace`: a sequence of :class:`AccessEpoch` time slices,
each carrying a sparse page -> LLC-miss-count vector plus the pure-CPU time
of the slice.  Traces are what microVMs "execute" and what profilers observe.

:mod:`repro.trace.synth` builds the histograms (banded/zipf/uniform shapes)
and :mod:`repro.trace.allocator` injects the guest-OS allocation
non-determinism the paper observes (Section III-B: identical inputs can
yield different access patterns).
"""

from .events import AccessEpoch, InvocationTrace
from .synth import Band, banded_histogram, zipf_histogram, uniform_histogram
from .allocator import GuestAllocator
from .cache import TraceCache, shared_trace_cache

__all__ = [
    "AccessEpoch",
    "InvocationTrace",
    "TraceCache",
    "shared_trace_cache",
    "Band",
    "banded_histogram",
    "zipf_histogram",
    "uniform_histogram",
    "GuestAllocator",
]
