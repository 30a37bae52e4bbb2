"""Memory-access profilers (Section II-C / III-C).

* :mod:`~repro.profiling.damon` — a faithful simulation of DAMON's
  region-based adaptive sampler: per sampling interval it checks one random
  page per region, and periodically merges similar and splits large
  regions.  TOSS consumes its per-invocation region/``nr_accesses`` output.
* :mod:`~repro.profiling.uffd` — ``userfaultfd`` first-touch capture
  (REAP's dual-accessed working set).
* :mod:`~repro.profiling.mincore` — ``mincore()``-based capture (FaaSnap),
  including the page-cache readahead inflation the paper criticises.
* :mod:`~repro.profiling.unified` — TOSS's unified access-pattern file:
  merges DAMON output across invocations and detects convergence.
"""

from .damon import DamonConfig, DamonProfiler, DamonSnapshot
from .uffd import uffd_working_set, uffd_capture_overhead_s
from .mincore import mincore_working_set
from .unified import UnifiedAccessPattern

__all__ = [
    "DamonConfig",
    "DamonProfiler",
    "DamonSnapshot",
    "uffd_working_set",
    "uffd_capture_overhead_s",
    "mincore_working_set",
    "UnifiedAccessPattern",
]
