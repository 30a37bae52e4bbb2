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

    def test_total_accesses(self):
        c = PerfCounters(fast_accesses=10, slow_accesses=5)
        assert c.total_accesses == 15
