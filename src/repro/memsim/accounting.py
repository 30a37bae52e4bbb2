"""Perf-style counters.

:class:`PerfCounters` mirrors the hardware counters the paper reads with
``perf`` (Section VI-C1 measures memory intensiveness as the fraction of
cycles stalled on outstanding LLC miss demand loads).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Per-invocation hardware-event accounting.

    Attributes map to what the real system would report:

    * ``cpu_time_s`` — cycles not stalled on memory (as seconds).
    * ``fast_stall_s`` / ``slow_stall_s`` — stall time on LLC-miss loads
      served by each tier.
    * ``fault_stall_s`` — page-fault service time (minor + major).
    * ``fast_accesses`` / ``slow_accesses`` — LLC-miss demand loads per tier.
    * ``minor_faults`` / ``major_faults`` — page-fault counts.
    """

    cpu_time_s: float = 0.0
    fast_stall_s: float = 0.0
    slow_stall_s: float = 0.0
    fault_stall_s: float = 0.0
    fast_accesses: int = 0
    slow_accesses: int = 0
    minor_faults: int = 0
    major_faults: int = 0

    @property
    def total_time_s(self) -> float:
        """End-to-end simulated execution time."""
        return (
            self.cpu_time_s
            + self.fast_stall_s
            + self.slow_stall_s
            + self.fault_stall_s
        )

    @property
    def total_accesses(self) -> int:
        """Total LLC-miss demand loads across both tiers."""
        return self.fast_accesses + self.slow_accesses
