"""Replicated snapshot placement: balance, time-indexed holders, repair."""

from __future__ import annotations

import pytest

from repro.cluster import FLEET_SUITE, Replacement, SnapshotPlacement
from repro.errors import ClusterError


class TestPlace:
    def test_single_function_lands_on_lightest_hosts(self):
        placement = SnapshotPlacement(4, replication_factor=2)
        assert placement.place("a", 256.0) == [0, 1]
        # The next function avoids the loaded hosts.
        assert placement.place("b", 128.0) == [2, 3]
        # And the next goes where the least weight sits.
        assert placement.place("c", 64.0) == [2, 3]

    def test_place_is_idempotent(self):
        placement = SnapshotPlacement(2, replication_factor=1)
        first = placement.place("a", 100.0)
        assert placement.place("a", 100.0) == first
        assert placement.base_holders("a") == first

    def test_holders_are_distinct_and_primary_first(self):
        placement = SnapshotPlacement(3, replication_factor=3)
        holders = placement.place("a", 100.0)
        assert sorted(holders) == [0, 1, 2]
        assert len(set(holders)) == 3

    def test_replication_factor_validated(self):
        with pytest.raises(ClusterError):
            SnapshotPlacement(2, replication_factor=3)
        with pytest.raises(ClusterError):
            SnapshotPlacement(2, replication_factor=0)


class TestPlaceSuite:
    def test_suite_is_balanced_and_fully_replicated(self):
        placement = SnapshotPlacement(2, replication_factor=2)
        placement.place_suite(list(FLEET_SUITE))
        for function in FLEET_SUITE:
            holders = placement.base_holders(function.name)
            assert len(holders) == 2
            assert len(set(holders)) == 2

    def test_unreplicated_suite_weights_are_lpt_balanced(self):
        placement = SnapshotPlacement(2, replication_factor=1)
        placement.place_suite(list(FLEET_SUITE))
        weights = [0.0, 0.0]
        for function in FLEET_SUITE:
            (holder,) = placement.base_holders(function.name)
            weights[holder] += function.guest_mb
        # Total 896 MB over two hosts: LPT keeps the split tight.
        assert max(weights) - min(weights) <= max(
            f.guest_mb for f in FLEET_SUITE
        )

    def test_replacing_an_already_placed_function_rejected(self):
        placement = SnapshotPlacement(2, replication_factor=1)
        placement.place_suite(list(FLEET_SUITE))
        with pytest.raises(ClusterError, match="already placed"):
            placement.place_suite([FLEET_SUITE[0]])


def replacements_for(placement, name):
    """The repair records ``placement`` holds for one function."""
    return [r for r in placement._replacements if r.function == name]


class TestReplacements:
    def placement(self):
        placement = SnapshotPlacement(3, replication_factor=1)
        placement.place("a", 100.0)  # host 0
        return placement

    def test_replacement_becomes_routable_at_effective_time(self):
        placement = self.placement()
        placement.add_replacement(
            Replacement(effective_s=5.0, function="a", host=2, source=0)
        )
        assert placement.holders_at("a", 4.9) == [0]
        assert placement.holders_at("a", 5.0) == [0, 2]
        assert replacements_for(placement, "a")[0].source == 0

    def test_add_replacement_is_idempotent(self):
        placement = self.placement()
        rep = Replacement(effective_s=5.0, function="a", host=2)
        placement.add_replacement(rep)
        placement.add_replacement(rep)
        assert placement.holders_at("a", 9.0) == [0, 2]
        assert len(replacements_for(placement, "a")) == 1

    def test_idempotency_keys_on_function_and_host(self):
        # Two distinct records for the same (function, host) — a crash
        # repair and a later durability re-replication, say — must not
        # double-register the holder: the first record wins.
        placement = self.placement()
        placement.add_replacement(
            Replacement(effective_s=5.0, function="a", host=2, source=0)
        )
        placement.add_replacement(
            Replacement(effective_s=7.0, function="a", host=2, source=None)
        )
        assert len(replacements_for(placement, "a")) == 1
        assert replacements_for(placement, "a")[0].effective_s == 5.0
        # A different host is a different repair, not a duplicate.
        placement.add_replacement(
            Replacement(effective_s=6.0, function="a", host=1)
        )
        assert len(replacements_for(placement, "a")) == 2

    def test_replacement_for_unknown_function_rejected(self):
        placement = self.placement()
        with pytest.raises(ClusterError, match="not placed"):
            placement.add_replacement(
                Replacement(effective_s=1.0, function="ghost", host=1)
            )

    def test_replacement_host_out_of_range_rejected(self):
        placement = self.placement()
        with pytest.raises(ClusterError, match="out of range"):
            placement.add_replacement(
                Replacement(effective_s=1.0, function="a", host=7)
            )

    def test_repair_not_routable_before_replication_delay(self):
        # Regression: a crash repair must not appear in holders_at
        # until the replication copy has had re_replication_delay_s to
        # land — routing to it earlier would dispatch to a host that
        # does not hold the snapshot yet.
        from repro.cluster import ClusterConfig, ClusterPlatform, steady_requests
        from repro.core.toss import TossConfig
        from repro.faults.plan import FaultPlan, HostFaultSpec

        crash_s, delay_s = 2.0, 1.0
        cluster = ClusterPlatform(
            ClusterConfig(
                n_hosts=3,
                replication_factor=1,
                cores_per_host=4,
                re_replication_delay_s=delay_s,
            ),
            toss_cfg=TossConfig(
                convergence_window=3, min_profiling_invocations=3
            ),
            plan=FaultPlan(
                hosts=(
                    HostFaultSpec(host=0, crash_windows=((crash_s, 6.0),)),
                )
            ),
        )
        cluster.deploy_fleet(list(FLEET_SUITE))
        cluster.serve(steady_requests(n_requests=120, duration_s=8.0))
        repaired = [
            (name, rep)
            for name in cluster.placement.functions
            for rep in replacements_for(cluster.placement, name)
        ]
        assert repaired, "the crash must have scheduled repairs"
        for name, rep in repaired:
            assert rep.effective_s >= crash_s + delay_s
            before = cluster.placement.holders_at(
                name, rep.effective_s - 1e-9
            )
            after = cluster.placement.holders_at(name, rep.effective_s)
            assert rep.host not in before
            assert rep.host in after

    def test_lightest_host_excluding(self):
        placement = self.placement()  # host 0 carries 100 MB
        assert placement.lightest_host_excluding({0}) in (1, 2)
        assert placement.lightest_host_excluding({0, 1}) == 2
        assert placement.lightest_host_excluding({0, 1, 2}) is None
        # Accounting replacement weight steers later repairs away.
        placement.note_weight(1, 500.0)
        assert placement.lightest_host_excluding({0}) == 2
