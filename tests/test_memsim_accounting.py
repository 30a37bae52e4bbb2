"""Tests for perf counters."""

from __future__ import annotations

import pytest

from repro.memsim.accounting import PerfCounters


class TestPerfCounters:
    def test_total_time(self):
        c = PerfCounters(
            cpu_time_s=1.0, fast_stall_s=0.2, slow_stall_s=0.3, fault_stall_s=0.5
        )
        assert c.total_time_s == pytest.approx(2.0)
        assert c.memory_stall_s == pytest.approx(0.5)

    def test_memory_intensiveness(self):
        c = PerfCounters(cpu_time_s=0.6, fast_stall_s=0.4)
        assert c.memory_intensiveness == pytest.approx(0.4)

    def test_memory_intensiveness_empty(self):
        assert PerfCounters().memory_intensiveness == 0.0

    def test_total_accesses(self):
        c = PerfCounters(fast_accesses=10, slow_accesses=5)
        assert c.total_accesses == 15

    def test_merge_sums_fields(self):
        a = PerfCounters(cpu_time_s=1.0, fast_accesses=3, minor_faults=2)
        b = PerfCounters(cpu_time_s=0.5, fast_accesses=4, major_faults=1)
        m = a.merge(b)
        assert m.cpu_time_s == pytest.approx(1.5)
        assert m.fast_accesses == 7
        assert m.minor_faults == 2 and m.major_faults == 1
        # Merge leaves the operands untouched.
        assert a.fast_accesses == 3 and b.fast_accesses == 4
