"""Property tests for the event kernel (:mod:`repro.sim`).

The kernel's contract is determinism: identical schedules replay
identically, simultaneous events fire FIFO in scheduling order, and
time never runs backwards.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memsim.bandwidth import RESOURCES, ContentionModel, TierDemand
from repro.memsim.storage import OPTANE_SSD_SPEC
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM
from repro.sim import EventLoop, EventScheduler, TimelineJob

DELAYS = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=40,
)
PRIORITIES = st.integers(min_value=0, max_value=3)


class TestDeterminism:
    @given(
        st.lists(st.tuples(DELAYS.map(lambda d: d[0]), PRIORITIES), min_size=1, max_size=40)
    )
    @settings(max_examples=50, deadline=None)
    def test_identical_schedules_replay_identically(self, spec):
        def trace(schedule):
            loop = EventLoop()
            order: list[int] = []
            for i, (at_s, priority) in enumerate(schedule):
                loop.schedule_at(
                    at_s, lambda _n, i=i: order.append(i), priority=priority
                )
            loop.run()
            return order

        assert trace(spec) == trace(spec)

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_simultaneous_events_fire_fifo(self, n):
        loop = EventLoop()
        order: list[int] = []
        for i in range(n):
            loop.schedule_at(1.0, lambda _n, i=i: order.append(i))
        loop.run()
        assert order == list(range(n))

    def test_priority_bands_order_same_instant(self):
        loop = EventLoop()
        order: list[str] = []
        loop.schedule_at(1.0, lambda _n: order.append("arrival"), priority=2)
        loop.schedule_at(1.0, lambda _n: order.append("release"), priority=0)
        loop.schedule_at(1.0, lambda _n: order.append("emit"), priority=1)
        loop.run()
        assert order == ["release", "emit", "arrival"]

    @given(st.floats(max_value=-1e-12, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_negative_delays_rejected(self, delay):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda _n: None)
        loop.run()
        with pytest.raises(ConfigError):
            loop.schedule_at(loop.now + delay, lambda _n: None)

    def test_scheduling_in_the_past_rejected(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda _n: None)
        loop.run()
        with pytest.raises(ConfigError):
            loop.schedule_at(4.0, lambda _n: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, bad):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda _n: None)
        loop.run()
        with pytest.raises(ConfigError):
            loop.schedule_at(bad, lambda _n: None)
        with pytest.raises(ConfigError):
            loop.schedule_at(loop.now + bad, lambda _n: None)
        with pytest.raises(ConfigError):
            loop.schedule_batch([2.0, bad], lambda _n: None)
        assert loop.live_count("") == 0

    def test_time_is_monotone_across_dispatch(self):
        loop = EventLoop()
        seen: list[float] = []
        for d in (3.0, 1.0, 2.0, 1.0):
            loop.schedule_at(d, lambda _n: seen.append(loop.now))
        loop.run()
        assert seen == sorted(seen)


class TestEquilibriumIdentity:
    """The kernel's synchronized batch IS the analytic model."""

    def model(self):
        return ContentionModel(DEFAULT_MEMORY_SYSTEM, OPTANE_SSD_SPEC)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=2.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=5e4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_synchronized_equals_analytic_bytes(self, rows):
        model = self.model()
        demands = [
            TierDemand(cpu_time_s=cpu, ssd_stall_s=stall, ssd_ops=ops)
            for cpu, stall, ops in rows
        ]
        engine = EventScheduler(model)
        times, inflation = engine.run_synchronized(demands)
        assert times == model.contended_times(demands)
        assert inflation == self.model()._solve(demands)[1]

    def test_single_job_timeline_matches_single_demand_equilibrium(self):
        model = self.model()
        demand = TierDemand(cpu_time_s=0.5, ssd_stall_s=0.2, ssd_ops=1e4)
        engine = EventScheduler(model)
        result = engine.run_timeline([TimelineJob(0.0, demand, label="solo")])
        [analytic] = model.contended_times([demand])
        # The timeline's quasi-static rates are pinned at the nominal time
        # while the analytic fixed point iterates them at the contended
        # time, so a self-inflating job agrees closely, not bit-exactly.
        job = result.jobs[0]
        assert job.finish_s - job.start_s == pytest.approx(analytic, rel=1e-3)

    def test_staggered_jobs_contend_only_while_overlapping(self):
        model = self.model()
        heavy = TierDemand(cpu_time_s=0.1, ssd_stall_s=0.4, ssd_ops=2.4e5)
        engine = EventScheduler(model)
        overlapped = engine.run_timeline(
            [TimelineJob(0.0, heavy, label=f"j{i}") for i in range(4)]
        )
        spread = engine.run_timeline(
            [TimelineJob(10.0 * i, heavy, label=f"j{i}") for i in range(4)]
        )
        mean_overlapped = sum(j.finish_s - j.start_s for j in overlapped.jobs) / 4
        mean_spread = sum(j.finish_s - j.start_s for j in spread.jobs) / 4
        assert mean_overlapped > mean_spread * 1.05

    def test_empty_batch_reports_idle_utilization(self):
        engine = EventScheduler(self.model())
        demand = TierDemand(
            cpu_time_s=0.1, slow_read_stall_s=0.05, slow_read_ops=2e5
        )
        engine.run_synchronized([demand] * 5)
        assert engine.utilization_summary()["slow_read"]["peak_rho"] > 0.0
        assert engine.run_synchronized([]) == ([], {r: 1.0 for r in RESOURCES})
        idle = {"mean_rho": 0.0, "peak_rho": 0.0, "peak_inflation": 1.0}
        assert engine.utilization_summary() == {r: idle for r in RESOURCES}

    @pytest.mark.parametrize("arrival", [math.nan, math.inf])
    def test_non_finite_arrival_rejected(self, arrival):
        demand = TierDemand(cpu_time_s=0.1)
        with pytest.raises(ConfigError):
            TimelineJob(arrival, demand)
        job = TimelineJob(0.0, demand)
        job.arrival_s = arrival
        with pytest.raises(ConfigError):
            EventScheduler(self.model()).run_timeline([job])

    def test_staggered_timeline_summary_pinned(self):
        """Four overlapping jobs, one per resource mix; the makespan,
        finish times and utilization summary were recorded as
        ``float.hex`` from the sample-tuple summary this engine
        replaced."""
        jobs = [
            TimelineJob(
                0.0,
                TierDemand(cpu_time_s=0.1, ssd_stall_s=0.4, ssd_ops=2.4e5),
                "a",
            ),
            TimelineJob(
                0.05,
                TierDemand(
                    cpu_time_s=0.2,
                    slow_read_stall_s=0.1,
                    slow_read_ops=3e5,
                    uffd_stall_s=0.05,
                    uffd_ops=2e4,
                ),
                "b",
            ),
            TimelineJob(
                0.12,
                TierDemand(
                    cpu_time_s=0.05,
                    slow_write_stall_s=0.08,
                    slow_write_ops=1e5,
                    fast_stall_s=0.01,
                    fast_bytes=5e8,
                ),
                "c",
            ),
            TimelineJob(
                0.9,
                TierDemand(cpu_time_s=0.3, ssd_stall_s=0.1, ssd_ops=5e4),
                "d",
            ),
        ]
        engine = EventScheduler(self.model())
        result = engine.run_timeline(jobs)
        assert result.makespan_s.hex() == "0x1.96b78832ed283p+3"
        assert [j.finish_s.hex() for j in result.jobs] == [
            "0x1.96b78832ed283p+3",
            "0x1.b4493b4493b45p-2",
            "0x1.83101a873eb7bp-2",
            "0x1.6666666666663p+3",
        ]
        pinned = {
            "fast": (
                "0x1.91b27848109f6p-11",
                "0x1.107a76db6db6dp-5",
                "0x1.08ced3715c2edp+0",
            ),
            "slow_read": (
                "0x1.f6f8345563ecdp-10",
                "0x1.d41d41d41d41cp-5",
                "0x1.0f83e0f83e0f8p+0",
            ),
            "slow_write": (
                "0x1.c14a6853b907cp-7",
                "0x1.30c30c30c30c2p-1",
                "0x1.3c3c3c3c3c3c2p+1",
            ),
            "ssd": (
                "0x1.14ecb785a6e61p+0",
                "0x1.199999999999ap+0",
                "0x1.8fffffffffffap+6",
            ),
            "uffd": (
                "0x1.3a5b20b55e741p-7",
                "0x1.2492492492492p-2",
                "0x1.6666666666666p+0",
            ),
        }
        got = {
            r: tuple(
                s[k].hex() for k in ("mean_rho", "peak_rho", "peak_inflation")
            )
            for r, s in result.utilization.items()
        }
        assert got == pinned
        assert engine.utilization_summary() == result.utilization
