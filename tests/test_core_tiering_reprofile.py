"""Tests for snapshot tiering and the re-profiling policy."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.reprofile import REPROFILE_BOUND, ReprofilePolicy
from repro.core.tiering import build_tiered_snapshot
from repro.core.analysis import ProfilingAnalyzer
from repro.errors import AnalysisError, SnapshotError
from repro.vm.snapshot import SingleTierSnapshot
from repro.vm.vmm import VMM

from test_core_analysis import profiled_pattern


class TestBuildTieredSnapshot:
    def test_layout_matches_analysis(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        analysis = ProfilingAnalyzer().analyze(
            pattern, tiny_function.trace(3, 999)
        )
        vmm = VMM()
        boot = vmm.boot_and_run(tiny_function, 3, 0)
        base = vmm.capture_snapshot(boot.vm)
        snap = build_tiered_snapshot(base, analysis, source_inputs=(3,))
        np.testing.assert_array_equal(snap.placement(), analysis.placement)
        assert snap.expected_slowdown == analysis.expected_slowdown
        assert snap.source_inputs == (3,)

    def test_size_mismatch_rejected(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        analysis = ProfilingAnalyzer().analyze(
            pattern, tiny_function.trace(3, 999)
        )
        wrong = SingleTierSnapshot(
            n_pages=1024, page_versions=np.zeros(1024, dtype=np.uint64)
        )
        with pytest.raises(SnapshotError):
            build_tiered_snapshot(wrong, analysis)


class TestReprofilePolicy:
    def arm(self, policy, overhead_invocations=10, lri=1.0):
        policy.record_profiling(
            overhead_invocations,
            [0.01] * 10,
            latency_lri=lri,
            slowdown_full_slow=0.5,
        )

    def test_equation_2_overhead(self):
        p = ReprofilePolicy()
        p.record_profiling(
            7, [0.1, 0.2], latency_lri=1.0, slowdown_full_slow=0.4
        )
        assert p.profiling_overhead == pytest.approx(7 + 1.1 + 1.2)

    def test_not_armed_never_fires(self):
        p = ReprofilePolicy()
        assert not p.should_reprofile
        with pytest.raises(AnalysisError):
            p.observe(1.0)

    def test_short_invocations_amortise_slowly(self):
        p = ReprofilePolicy(bound=0.0001)
        self.arm(p)
        for _ in range(100):
            p.observe(0.5)  # shorter than the LRI
        assert p.accelerating_factor == 0.0
        assert not p.should_reprofile

    def test_longer_invocations_accelerate(self):
        """Equation 3: invocations beyond the LRI build evidence fast."""
        p = ReprofilePolicy(bound=0.0001)
        self.arm(p, overhead_invocations=10, lri=1.0)
        for _ in range(10):
            p.observe(2.0)  # 2x the LRI, weighted by (1 + SD_slow)
        assert p.accelerating_factor == pytest.approx(10 * 2.0 * 1.5)
        assert p.should_reprofile

    def test_many_iterations_eventually_amortise(self):
        """Equation 4 fires once iterations * bound covers the overhead."""
        p = ReprofilePolicy(bound=0.01)
        p.record_profiling(5, [0.0], latency_lri=1.0, slowdown_full_slow=0.0)
        needed = int((5 + 1) / 0.01)
        for _ in range(needed):
            p.observe(0.1)
        assert p.should_reprofile

    def test_rearming_resets_counters(self):
        p = ReprofilePolicy(bound=0.0001)
        self.arm(p)
        p.observe(2.0)
        self.arm(p)
        assert p.iterations == 0
        assert p.accelerating_factor == 0.0

    @pytest.mark.parametrize("bound", [math.nan, math.inf, True])
    def test_out_of_domain_bound_rejected(self, bound):
        with pytest.raises(AnalysisError, match="re-profiling bound must be a finite real"):
            ReprofilePolicy(bound=bound)

    def test_bound_domain_is_the_config_field_domain(self):
        from repro.core.toss import TossConfig

        field = next(f for f in dataclasses.fields(TossConfig) if f.name == "reprofile_bound")
        assert field.metadata["domain"] is REPROFILE_BOUND

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            ReprofilePolicy(bound=0.0)
        p = ReprofilePolicy()
        with pytest.raises(AnalysisError):
            p.record_profiling(-1, [], latency_lri=1.0, slowdown_full_slow=0.0)
        with pytest.raises(AnalysisError):
            p.record_profiling(1, [], latency_lri=0.0, slowdown_full_slow=0.0)
