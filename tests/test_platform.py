"""Tests for the scheduler, arrival processes and the platform."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DramBaseline, ReapSystem
from repro.core.toss import Phase, TossConfig
from repro.errors import SchedulerError
from repro.platform import (
    Scheduler,
    ServerlessPlatform,
    bursty_arrivals,
    fixed_arrivals,
    poisson_arrivals,
)


class TestScheduler:
    def test_single_invocation_matches_uncontended(self, tiny_function):
        sched = Scheduler()
        dram = DramBaseline(tiny_function)
        result = sched.run_concurrent(dram, 3, 1)
        solo = dram.invoke(3, 0).exec_time_s
        assert result.mean_exec_s == pytest.approx(solo, rel=0.02)

    def test_dram_scales_flat(self, tiny_function):
        sched = Scheduler()
        dram = DramBaseline(tiny_function)
        t1 = sched.run_concurrent(dram, 3, 1).mean_exec_s
        t20 = sched.run_concurrent(dram, 3, 20).mean_exec_s
        assert t20 == pytest.approx(t1, rel=0.15)

    def test_reap_worst_degrades_under_load(self, tiny_function):
        sched = Scheduler()
        reap = ReapSystem(tiny_function, snapshot_input=0)
        t1 = sched.run_concurrent(reap, 3, 1).mean_exec_s
        t20 = sched.run_concurrent(reap, 3, 20).mean_exec_s
        assert t20 > 1.5 * t1
        assert sched.run_concurrent(reap, 3, 20).saturated_resource in (
            "uffd",
            "ssd",
        )

    def test_oversubscription_rejected(self, tiny_function):
        sched = Scheduler(n_cores=4)
        dram = DramBaseline(tiny_function)
        with pytest.raises(SchedulerError):
            sched.run_concurrent(dram, 3, 5)
        with pytest.raises(SchedulerError):
            sched.run_concurrent(dram, 3, 0)

    @pytest.mark.parametrize("n_cores", [2.5, float("nan"), True])
    def test_non_integer_core_count_rejected(self, n_cores):
        with pytest.raises(SchedulerError, match="n_cores must be an integer"):
            Scheduler(n_cores=n_cores)

    def test_result_shape(self, tiny_function):
        sched = Scheduler()
        result = sched.run_concurrent(DramBaseline(tiny_function), 2, 5)
        assert len(result.exec_times_s) == 5
        assert len(result.setup_times_s) == 5
        assert result.concurrency == 5
        assert result.max_exec_s >= result.mean_exec_s



class TestArrivals:
    def test_poisson_rate(self, rng):
        times = poisson_arrivals(100.0, 10.0, rng)
        assert times.size == pytest.approx(1000, rel=0.2)
        assert np.all(np.diff(times) >= 0)
        assert times.max() < 10.0

    def test_fixed_interval(self):
        times = fixed_arrivals(0.5, 2.0)
        np.testing.assert_allclose(times, [0.0, 0.5, 1.0, 1.5])

    def test_bursty_shape(self, rng):
        times = bursty_arrivals(5, 1.0, 3.0, rng)
        assert times.size == 15
        assert np.all(np.diff(times) >= 0)

    def test_invalid_params(self, rng):
        with pytest.raises(SchedulerError):
            poisson_arrivals(0.0, 1.0, rng)
        with pytest.raises(SchedulerError):
            fixed_arrivals(-1.0, 1.0)
        with pytest.raises(SchedulerError):
            bursty_arrivals(0, 1.0, 1.0, rng)


class TestServerlessPlatform:
    def platform(self) -> ServerlessPlatform:
        return ServerlessPlatform(
            n_cores=4,
            toss_cfg=TossConfig(
                convergence_window=3, min_profiling_invocations=3
            ),
        )

    def test_deploy_idempotent(self, tiny_function):
        p = self.platform()
        a = p.deploy(tiny_function)
        b = p.deploy(tiny_function)
        assert a is b

    def test_undeployed_function_rejected(self):
        p = self.platform()
        with pytest.raises(SchedulerError):
            p.serve([(0.0, "ghost", 0)])

    @pytest.mark.parametrize("n_cores", [2.5, float("nan"), True])
    def test_non_integer_core_count_rejected(self, n_cores):
        with pytest.raises(SchedulerError, match="n_cores must be an integer"):
            ServerlessPlatform(n_cores=n_cores)

    def test_serve_cannot_go_back_in_time(self, tiny_function):
        p = self.platform()
        p.deploy(tiny_function)
        p.serve([(0.5, "tiny", 0)])
        # An equal arrival is still in order ...
        p.serve([(0.5, "tiny", 1)])
        # ... an earlier one is not, and nothing of it is served.
        with pytest.raises(SchedulerError, match="arrives before"):
            p.serve([(0.4, "tiny", 0), (0.6, "tiny", 0)])
        assert len(p.log) == 2

    def test_aborted_call_leaves_nothing_for_the_next(
        self, tiny_function, monkeypatch
    ):
        p = self.platform()
        p.deploy(tiny_function)
        invoke = ServerlessPlatform._invoke
        calls = []

        def third_raises(self, dep, input_index, **kwargs):
            calls.append(input_index)
            if len(calls) == 3:
                raise SchedulerError("internal error")
            return invoke(self, dep, input_index, **kwargs)

        monkeypatch.setattr(ServerlessPlatform, "_invoke", third_raises)
        with pytest.raises(SchedulerError, match="internal error"):
            p.serve([(0.1 * i, "tiny", 0) for i in range(6)])
        monkeypatch.setattr(ServerlessPlatform, "_invoke", invoke)
        log = p.serve([(1.0, "tiny", 1)])
        assert [(e.arrival_s, e.input_index) for e in log] == [(1.0, 1)]

    def test_serving_advances_lifecycle(self, tiny_function):
        p = self.platform()
        p.deploy(tiny_function)
        requests = [(0.05 * i, "tiny", 3) for i in range(40)]
        log = p.serve(requests)
        assert len(log) == 40
        phases = [e.phase for e in log]
        assert phases[0] is Phase.INITIAL
        assert Phase.TIERED in phases

    def test_queueing_under_core_pressure(self, tiny_function):
        p = ServerlessPlatform(
            n_cores=1,
            toss_cfg=TossConfig(convergence_window=3),
        )
        p.deploy(tiny_function)
        log = p.serve([(0.0, "tiny", 3), (0.0, "tiny", 3)])
        assert log[1].queue_delay_s > 0
        assert log[1].start_s >= log[0].finish_s

    def test_tiering_saves_money(self, tiny_function):
        """End to end: after convergence the tiered bill is below the
        DRAM-only bill (observation #5)."""
        p = self.platform()
        p.deploy(tiny_function)
        p.serve([(0.1 * i, "tiny", 3) for i in range(50)])
        assert p.total_billed() < p.total_dram_billed()
        assert 0.0 < p.savings_fraction() < 0.6

    def test_arrival_distribution_insensitive(self, tiny_function, rng):
        """TOSS converges regardless of the request distribution
        (Section IV-A)."""
        for times in (
            fixed_arrivals(0.05, 2.0),
            poisson_arrivals(20.0, 2.0, rng),
        ):
            p = self.platform()
            p.deploy(tiny_function)
            log = p.serve([(float(t), "tiny", 3) for t in times])
            assert Phase.TIERED in [e.phase for e in log]
