"""Tests for predictive pre-warming."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.platform.arrival import fixed_arrivals, poisson_arrivals
from repro.platform.prewarm import ArrivalPredictor, PrewarmPolicy


class TestArrivalPredictor:
    def test_needs_two_samples(self):
        p = ArrivalPredictor()
        assert p.predict_next() is None
        p.observe(1.0)
        assert p.predict_next() is None
        p.observe(2.0)
        assert p.predict_next() == pytest.approx(3.0)

    def test_fixed_interval_prediction_exact(self):
        p = ArrivalPredictor()
        for t in fixed_arrivals(0.5, 5.0):
            p.observe(float(t))
        assert p.predict_next() == pytest.approx(5.0, abs=1e-9)

    def test_ewma_adapts_to_rate_change(self):
        p = ArrivalPredictor()
        for t in (0.0, 1.0, 2.0):
            p.observe(t)
        for t in (2.1, 2.2, 2.3, 2.4, 2.5, 2.6):
            p.observe(t)
        gap = p.predict_next() - 2.6
        assert gap < 0.3  # converging toward the new 0.1 s cadence

    def test_non_monotone_rejected(self):
        p = ArrivalPredictor()
        p.observe(5.0)
        with pytest.raises(SchedulerError):
            p.observe(4.0)


class TestPrewarmPolicy:
    def drive(self, arrivals, setup_s=0.01) -> PrewarmPolicy:
        policy = PrewarmPolicy()
        for t in arrivals:
            policy.would_hide_setup("f", float(t), setup_s)
            policy.observe("f", float(t))
        return policy

    def test_timer_functions_prewarm_perfectly(self):
        policy = self.drive(fixed_arrivals(1.0, 30.0))
        # After the warm-up samples, every arrival is predicted.
        assert policy.hit_rate > 0.85

    def test_poisson_prewarms_partially(self, rng):
        times = poisson_arrivals(2.0, 60.0, rng)
        policy = self.drive(times)
        assert 0.0 < policy.hit_rate < 0.95

    def test_timer_beats_poisson(self, rng):
        timer = self.drive(fixed_arrivals(0.5, 30.0))
        poisson = self.drive(poisson_arrivals(2.0, 30.0, rng))
        assert timer.hit_rate > poisson.hit_rate

    def test_huge_setup_cannot_hide(self):
        policy = self.drive(fixed_arrivals(1.0, 20.0), setup_s=10.0)
        assert policy.hit_rate == 0.0

    def test_platform_integration_timer_workload(self, tiny_function):
        """Timer-driven tiered invocations see zero setup latency."""
        from repro.core.toss import Phase, TossConfig
        from repro.platform import ServerlessPlatform

        policy = PrewarmPolicy()
        platform = ServerlessPlatform(
            n_cores=4,
            toss_cfg=TossConfig(convergence_window=3,
                                min_profiling_invocations=3),
            prewarm=policy,
        )
        platform.deploy(tiny_function)
        log = platform.serve([(0.5 * i, "tiny", 3) for i in range(40)])
        tiered = [e for e in log if e.phase is Phase.TIERED]
        hidden = [e for e in tiered if e.setup_time_s == 0.0]
        assert tiered and len(hidden) == len(tiered)
        # Profiling-phase requests never count as pre-warm hits.
        profiling = [e for e in log if e.phase is not Phase.TIERED]
        assert all(e.setup_time_s > 0 for e in profiling[1:])

    def test_early_arrival_misses(self):
        policy = PrewarmPolicy(margin_s=0.05)
        policy.observe("f", 0.0)
        policy.observe("f", 10.0)
        # Predicted next: 20.0; an arrival at 12.0 beats the restore
        # (launched at 19.95, it has not even started).
        assert not policy.would_hide_setup("f", 12.0, setup_time_s=9.0)
        # An arrival right on schedule is hidden: the restore launched at
        # 19.95 and took 5 ms.
        assert policy.would_hide_setup("f", 20.0, setup_time_s=0.005)


class TestHorizonSparseTraffic:
    """The horizon must bound the prediction's lead time from the last
    *observed* arrival.  The old code compared the prediction against the
    arrival being judged — a difference of roughly zero whenever the
    request showed up on schedule — so the horizon never suppressed
    anything and sparse timers were counted as pre-warm hits the platform
    would never actually have paid memory to make."""

    def test_gap_beyond_horizon_is_never_a_hit(self):
        policy = PrewarmPolicy(horizon_s=120.0)
        # Perfectly regular but sparse timer: 300 s between arrivals.
        policy.observe("f", 0.0)
        policy.observe("f", 300.0)
        # The prediction (600 s) is 300 s of speculative lead time —
        # beyond the horizon, so the on-schedule arrival must miss even
        # though the restore itself would have been trivially fast.
        assert not policy.would_hide_setup("f", 600.0, setup_time_s=0.005)
        assert policy.hits == 0
        assert policy.misses == 1

    def test_sparse_timer_workload_hides_nothing(self):
        policy = PrewarmPolicy(horizon_s=120.0)
        for t in fixed_arrivals(200.0, 2000.0):
            policy.would_hide_setup("f", float(t), 0.005)
            policy.observe("f", float(t))
        assert policy.hit_rate == 0.0

    def test_gap_within_horizon_still_hits(self):
        policy = PrewarmPolicy(horizon_s=120.0)
        policy.observe("f", 0.0)
        policy.observe("f", 60.0)
        # 60 s of lead time is inside the horizon: the fix must not
        # over-suppress dense-but-not-rapid timers.
        assert policy.would_hide_setup("f", 120.0, setup_time_s=0.01)
