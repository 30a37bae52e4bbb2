"""Metamorphic relations of the serve timeline.

A platform keeps one serve state for its whole life — busy cores, queue
and in-flight counts, capacity leases — so where a request stream is cut
into ``serve()`` calls must not change what any request sees.  A cluster
fleet runs its hosts on one timeline the same way; only a host crash
takes a host's serve state away.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterConfig, ClusterPlatform, fleet_function
from repro.core.toss import TossConfig
from repro.faults.plan import FaultPlan, HostFaultSpec
from repro.platform import HostCapacity
from repro.platform.overload import OverloadConfig
from repro.platform.server import ServerlessPlatform

SMALL_TOSS = TossConfig(convergence_window=3, min_profiling_invocations=3)

FUNCTIONS = (
    fleet_function("meta_a", 128, 0.004),
    fleet_function("meta_b", 256, 0.006),
)


@st.composite
def streams(draw):
    """A dense, sorted request stream and a split point inside it."""
    n = draw(st.integers(min_value=2, max_value=36))
    gaps = draw(
        st.lists(
            st.sampled_from((0.0, 0.001, 0.002, 0.004, 0.01)),
            min_size=n,
            max_size=n,
        )
    )
    requests, arrival = [], 0.0
    for gap in gaps:
        arrival += gap
        requests.append(
            (
                arrival,
                draw(st.sampled_from([f.name for f in FUNCTIONS])),
                draw(st.integers(min_value=0, max_value=3)),
                draw(st.sampled_from(("latency", "batch"))),
            )
        )
    requests.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return requests, draw(st.integers(min_value=1, max_value=n - 1))


def guarded_platform() -> ServerlessPlatform:
    platform = ServerlessPlatform(
        n_cores=2,
        toss_cfg=SMALL_TOSS,
        overload=OverloadConfig(
            max_queue_depth=3,
            max_queue_delay_s=0.02,
            max_function_depth=4,
            slo_factor=8.0,
            pressured_delay_s=0.004,
            degraded_delay_s=0.01,
            shedding_delay_s=0.03,
        ),
        capacity=HostCapacity(fast_mb=900.0, slow_mb=2048.0),
    )
    for function in FUNCTIONS:
        platform.deploy(function)
    return platform


def fleet() -> ClusterPlatform:
    cluster = ClusterPlatform(
        ClusterConfig(n_hosts=3, replication_factor=2, cores_per_host=1),
        toss_cfg=SMALL_TOSS,
    )
    cluster.deploy_fleet(list(FUNCTIONS))
    return cluster


EXAMPLES = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSplitServe:
    @EXAMPLES
    @given(streams())
    def test_split_host_stream_serves_identically(self, case):
        requests, k = case
        whole = guarded_platform().serve(requests)
        split = guarded_platform()
        parts = split.serve(requests[:k]) + split.serve(requests[k:])
        assert parts == whole
        assert split.log == whole

    @EXAMPLES
    @given(streams())
    def test_split_fleet_stream_serves_identically(self, case):
        requests, k = case
        whole = fleet().serve(requests)
        split = fleet()
        parts = split.serve(requests[:k]) + split.serve(requests[k:])
        assert parts == whole
        assert split.outcomes == whole


class TestCrashResetsOnlyItsHost:
    def test_crashed_host_returns_idle_while_others_stay_busy(self):
        """Host 0's crash kills its long request and takes its busy core
        with it, so a request arriving as it recovers starts at once.
        Host 1 did not crash: its core stays busy across the crash edge,
        and its next request queues behind the long one."""
        long_a = fleet_function("long_a", 128, 0.2)
        long_b = fleet_function("long_b", 128, 0.2)
        cluster = ClusterPlatform(
            ClusterConfig(n_hosts=2, replication_factor=1, cores_per_host=1),
            toss_cfg=SMALL_TOSS,
            plan=FaultPlan(
                hosts=(HostFaultSpec(host=0, crash_windows=((1.0, 2.0),)),)
            ),
        )
        cluster.deploy_fleet([long_a, long_b])
        a_host = cluster.placement.base_holders("long_a")[0]
        b_host = cluster.placement.base_holders("long_b")[0]
        if a_host != 0:
            long_a, long_b = long_b, long_a
            a_host, b_host = b_host, a_host
        assert (a_host, b_host) == (0, 1)
        outcomes = cluster.serve(
            [
                (0.5, long_b.name, 3),
                (0.9, long_a.name, 3),
                (1.2, long_b.name, 0),
                (2.0, long_a.name, 0),
            ]
        )
        by_arrival = {o.arrival_s: o for o in outcomes}
        killed = by_arrival[0.9]
        assert killed.kills == 1
        # The crashed host comes back with an idle core at the window's end.
        recovered = by_arrival[2.0]
        assert recovered.host == 0
        assert recovered.entry.start_s == 2.0
        # The surviving host kept its busy core across the crash edge.
        first, queued = by_arrival[0.5], by_arrival[1.2]
        assert first.host == queued.host == 1
        assert first.entry.finish_s > 1.2
        assert queued.entry.start_s == first.entry.finish_s
