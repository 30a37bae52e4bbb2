"""The durability plane: ledger, repair ladder, fleet integration."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterPlatform,
    FLEET_SUITE,
    steady_requests,
)
from repro.core.toss import Phase, TossConfig
from repro.durability import CorruptionEvent, DurabilityLedger, ScrubConfig
from repro.errors import ConfigError
from repro.faults.plan import BitRotSpec, FaultPlan

TOSS_CFG = TossConfig(convergence_window=3, min_profiling_invocations=3)

FUNCS = tuple(FLEET_SUITE[:2])


def converged_cluster(
    *,
    n_hosts: int = 2,
    rf: int = 2,
    scrub: ScrubConfig | None = None,
    plan: FaultPlan | None = None,
):
    """A small fleet served long enough for every function to converge."""
    cluster = ClusterPlatform(
        ClusterConfig(
            n_hosts=n_hosts, replication_factor=rf, cores_per_host=4
        ),
        toss_cfg=TOSS_CFG,
        plan=plan,
        # Scrub ticks are fleet maintenance events, so an interval inside
        # the stream also makes _sync_replicas run mid-stream and the
        # replicas adopt prepared state.
        scrub=scrub or ScrubConfig(interval_s=1.0, ops_per_page=0.25),
    )
    cluster.deploy_fleet(list(FUNCS))
    cluster.serve(
        steady_requests(n_requests=40, duration_s=4.0, functions=FUNCS)
    )
    return cluster


class TestLedger:
    def event(self):
        return CorruptionEvent(
            injected_s=1.0, host=0, function="f", copy="single",
            cause="bitrot", pages=4,
        )

    def test_first_detection_and_resolution_win(self):
        e = self.event()
        e.detect("scrub", 2.0)
        e.detect("restore", 3.0)
        assert (e.detected_by, e.detected_s) == ("scrub", 2.0)
        e.resolve("repaired-replica", 4.0)
        e.resolve("evicted-unrecoverable", 5.0)
        assert (e.outcome, e.resolved_s) == ("repaired-replica", 4.0)

    def test_unknown_stamps_rejected(self):
        e = self.event()
        with pytest.raises(ConfigError):
            e.detect("psychic", 1.0)
        with pytest.raises(ConfigError):
            e.resolve("wished-away", 1.0)

    def test_unaccounted_requires_both_stamps(self):
        ledger = DurabilityLedger()
        e = ledger.record(self.event())
        assert ledger.unaccounted() == 1
        e.detect("scrub", 2.0)
        assert ledger.unaccounted() == 1
        e.resolve("re-snapshot", 3.0)
        assert ledger.unaccounted() == 0
        assert ledger.detected_by("scrub") == 1
        assert ledger.resolved("re-snapshot") == 1
        assert ledger.unrecoverable == 0


class TestPlaneActivation:
    def test_no_plan_no_scrub_means_no_plane(self):
        cluster = ClusterPlatform(
            ClusterConfig(n_hosts=2, replication_factor=2),
            toss_cfg=TOSS_CFG,
        )
        assert cluster.durability is None

    def test_scrub_config_alone_activates_plane(self):
        cluster = converged_cluster()
        assert cluster.durability is not None
        assert cluster.durability.ledger.events == []

    def test_plane_tracks_every_holder_copy(self):
        cluster = converged_cluster()
        copies = cluster.durability.copies
        for func in FUNCS:
            holders = cluster.placement.base_holders(func.name)
            # Eager replication guarantees the single-tier file on
            # every holder; the tiered file exists at least where the
            # function converged (replicas adopt it at the next sync
            # boundary after convergence).
            for hid in holders:
                assert (hid, func.name, "single") in copies
            primary = next(
                hid
                for hid in holders
                if cluster.hosts[hid]
                .platform.deployments[func.name]
                .invocations
                > 0
            )
            assert (primary, func.name, "tiered") in copies

    def test_scrub_ticks_step_the_interval(self):
        cluster = ClusterPlatform(
            ClusterConfig(n_hosts=2, replication_factor=2),
            toss_cfg=TOSS_CFG,
            scrub=ScrubConfig(interval_s=100.0),
        )
        cluster.deploy_fleet([FUNCS[0]])
        assert cluster.durability.next_scrub_s == 100.0
        cluster.serve(
            [(t, FUNCS[0].name, 0) for t in (0.0, 120.0, 240.0, 350.0)]
        )
        # One pass per tick on the fleet timeline, up to the last dispatch.
        assert [r.started_s for r in cluster.durability.reports] == [
            100.0,
            200.0,
            300.0,
        ]
        assert cluster.durability.next_scrub_s == 400.0


class TestRepairLadder:
    def test_replica_repair_restores_copy_and_resolves_event(self):
        cluster = converged_cluster()
        manager = cluster.durability
        name = FUNCS[0].name
        hid = cluster.placement.base_holders(name)[0]
        copy = manager.copies[(hid, name, "single")]
        copy.snapshot.write_pages(
            [3], copy.snapshot.read_pages([3]) + np.uint64(0x0B17)
        )
        manager._inject(copy, 5.0, "bitrot", 1)
        manager._scrub(10.0)
        copy.snapshot.verify()  # damage gone
        assert manager.ledger.detected_by("scrub") == 1
        assert manager.ledger.resolved("repaired-replica") == 1
        assert manager.unaccounted() == 0

    def test_damaged_tiered_with_clean_single_reprofiles(self):
        cluster = converged_cluster()
        manager = cluster.durability
        name = FUNCS[0].name
        hid = cluster.placement.base_holders(name)[0]
        copy = manager.copies[(hid, name, "tiered")]
        # A content generation nothing else matches: every chunk reads
        # bad and no digest-matching source exists, but the local
        # single-tier file is intact — the re-snapshot rung.
        copy.index = dataclasses.replace(
            copy.index, digests=copy.index.digests ^ np.uint64(1)
        )
        manager._inject(copy, 5.0, "bitrot", 4)
        ctl = cluster.hosts[hid].platform.deployments[name].controller
        assert ctl.phase is Phase.TIERED
        manager._scrub(10.0)
        assert ctl.phase is Phase.PROFILING
        assert ctl.tiered_snapshot is None
        assert ctl.single_snapshot is not None
        assert manager.ledger.resolved("re-snapshot") == 1
        assert (hid, name, "tiered") not in manager.copies
        assert manager.unaccounted() == 0

    def test_all_copies_lost_everywhere_is_unrecoverable(self):
        cluster = converged_cluster(rf=1)
        manager = cluster.durability
        name = FUNCS[0].name
        (hid,) = cluster.placement.base_holders(name)
        single = manager.copies[(hid, name, "single")]
        tiered = manager.copies[(hid, name, "tiered")]
        # Same page damaged in both local files; rf=1 leaves no copy
        # anywhere else — the bottom of the ladder.
        for damaged in (single.snapshot, tiered.snapshot):
            damaged.write_pages([3], damaged.read_pages([3]) + np.uint64(0x0B17))
        manager._inject(single, 5.0, "bitrot", 1)
        manager._inject(tiered, 5.0, "bitrot", 1)
        ctl = cluster.hosts[hid].platform.deployments[name].controller
        manager._scrub(10.0)
        assert ctl.phase is Phase.INITIAL
        assert ctl.single_snapshot is None
        assert ctl.tiered_snapshot is None
        assert manager.ledger.unrecoverable == 2
        assert (hid, name, "single") not in manager.copies
        assert (hid, name, "tiered") not in manager.copies
        assert manager.unaccounted() == 0

    def test_clean_remote_copy_rebuilds_cold_and_re_replicates(self):
        cluster = converged_cluster()
        manager = cluster.durability
        name = FUNCS[0].name
        hid = cluster.placement.base_holders(name)[0]
        # Both local files are a content generation nothing matches
        # (chunk repair impossible), but intact copies of the function
        # live on the other holder: cold rebuild plus a scheduled
        # re-replication through the crash-repair pipeline.
        for kind in ("single", "tiered"):
            copy = manager.copies[(hid, name, kind)]
            copy.index = dataclasses.replace(
                copy.index, digests=copy.index.digests ^ np.uint64(1)
            )
            manager._inject(copy, 5.0, "bitrot", 2)
        ctl = cluster.hosts[hid].platform.deployments[name].controller
        before = len(cluster._pending_replacements)
        manager._scrub(10.0)
        assert ctl.phase is Phase.INITIAL
        assert ctl.single_snapshot is None
        assert manager.ledger.resolved("rebuilt-cold") == 2
        assert manager.ledger.unrecoverable == 0
        assert manager.unaccounted() == 0
        pending = cluster._pending_replacements[before:]
        assert len(pending) == 1
        assert pending[0].function == name
        assert pending[0].host == hid
        assert pending[0].force
        # Scheduled off the scrub pass's *finish* time (repairs land
        # after the pass's contended I/O), plus the replication delay.
        assert (
            pending[0].effective_s
            >= 10.0 + cluster.config.re_replication_delay_s
        )

    def test_re_replication_copy_lands_at_its_landing_time(self, monkeypatch):
        """The copy is applied at its ``effective_s``, on its own
        maintenance event, not at the next scrub tick or fault edge."""
        cluster = converged_cluster()
        manager = cluster.durability
        name = FUNCS[0].name
        hid = cluster.placement.base_holders(name)[0]
        for kind in ("single", "tiered"):
            copy = manager.copies[(hid, name, kind)]
            copy.index = dataclasses.replace(
                copy.index, digests=copy.index.digests ^ np.uint64(1)
            )
            manager._inject(copy, cluster.loop.now, "bitrot", 2)
        applied_at = []
        apply_repairs = cluster._apply_repairs

        def spy(now_s):
            n = len(cluster.replacements_applied)
            apply_repairs(now_s)
            applied_at.extend(
                (now_s, r) for r in cluster.replacements_applied[n:]
            )

        monkeypatch.setattr(cluster, "_apply_repairs", spy)
        manager._scrub(cluster.loop.now + 0.25)
        (pending,) = [
            r for r in cluster._pending_replacements
            if r.function == name and r.host == hid and not r.applied
        ]
        # Scrub ticks land on whole seconds; this copy does not.
        assert pending.effective_s % 1.0 != 0.0
        start = cluster.loop.now + 0.1
        cluster.serve(
            [
                (start + t, fn, i, cls)
                for t, fn, i, cls in steady_requests(
                    n_requests=20, duration_s=3.0, functions=FUNCS
                )
            ]
        )
        landed = [
            now_s for now_s, r in applied_at
            if r.function == name and r.host == hid
        ]
        assert landed == [pending.effective_s]


class TestEagerSingleReplication:
    def _early_cluster(self, *, scrub: ScrubConfig | None):
        cluster = ClusterPlatform(
            ClusterConfig(n_hosts=2, replication_factor=2, cores_per_host=4),
            toss_cfg=TOSS_CFG,
            scrub=scrub,
        )
        cluster.deploy_fleet([FUNCS[0]])
        # Too few invocations to converge: the single-tier file is the
        # only snapshot state when the stream ends.  The sub-second
        # scrub interval puts maintenance events inside the stream, so
        # the replica sync step actually runs after the first capture.
        cluster.serve(
            steady_requests(
                n_requests=3, duration_s=1.5, functions=(FUNCS[0],)
            )
        )
        return cluster

    def _replica_single(self, cluster):
        name = FUNCS[0].name
        primary, replica = cluster.placement.base_holders(name)
        dep = cluster.hosts[replica].platform.deployments.get(name)
        return None if dep is None else dep.controller.single_snapshot

    def test_durability_plane_replicates_single_file_early(self):
        cluster = self._early_cluster(scrub=ScrubConfig(interval_s=0.5))
        snapshot = self._replica_single(cluster)
        assert snapshot is not None
        # And the replica controller still has never served from it.
        name = FUNCS[0].name
        replica = cluster.placement.base_holders(name)[1]
        dep = cluster.hosts[replica].platform.deployments[name]
        assert dep.invocations == 0
        assert dep.controller.phase is Phase.INITIAL

    def test_without_plane_single_file_is_not_replicated(self):
        cluster = self._early_cluster(scrub=None)
        assert cluster.durability is None
        assert self._replica_single(cluster) is None


class TestFleetIntegration:
    def test_bitrot_run_accounts_for_every_corruption(self):
        plan = FaultPlan(
            bitrot=BitRotSpec(
                ssd_rate_per_page_s=2e-5,
                pmem_rate_per_page_s=1e-5,
                latent_sector_rate_per_s=0.2,
                torn_write_rate=0.2,
            ),
            seed=11,
        )
        cluster = converged_cluster(
            n_hosts=4, rf=2, plan=plan,
            scrub=ScrubConfig(interval_s=1.0, ops_per_page=0.25),
        )
        manager = cluster.durability
        summary = manager.summary()
        assert summary["events"] > 0
        assert summary["unaccounted"] == 0
        assert summary["scrub_passes"] > 0
        resolved = (
            summary["repaired_replica"]
            + summary["re_snapshot"]
            + summary["rebuilt_cold"]
            + summary["unrecoverable"]
        )
        assert resolved == summary["events"]
        assert cluster.availability() >= 0.99

    def test_scrub_only_plane_leaves_serving_identical(self):
        # The plane without any injected faults must not perturb what
        # the fleet serves: same stream, same outcomes, to the bit.
        requests = steady_requests(
            n_requests=40, duration_s=4.0, functions=FUNCS
        )

        def outcomes(scrub):
            cluster = ClusterPlatform(
                ClusterConfig(
                    n_hosts=2, replication_factor=2, cores_per_host=4
                ),
                toss_cfg=TOSS_CFG,
                scrub=scrub,
            )
            cluster.deploy_fleet(list(FUNCS))
            served = cluster.serve(list(requests))
            return [
                (o.entry.function, o.entry.start_s, o.entry.finish_s)
                for o in served
                if o.entry is not None
            ]

        with_plane = outcomes(ScrubConfig(interval_s=1.0))
        without = outcomes(None)
        assert with_plane == without


class TestAgingMediaRouting:
    """At-rest aging draws each copy's rot at its own media class: the
    single-tier file rests on the SSD, the tiered base file in the slow
    tier's persistent memory."""

    @pytest.mark.parametrize(
        "rates, rotted_kind",
        [
            ({"ssd_rate_per_page_s": 1e-4}, "single"),
            ({"pmem_rate_per_page_s": 1e-4}, "tiered"),
        ],
    )
    def test_only_copies_on_the_rotting_media_rot(self, rates, rotted_kind):
        plan = FaultPlan(bitrot=BitRotSpec(**rates), seed=5)
        cluster = converged_cluster(plan=plan)
        events = cluster.durability.ledger.events
        kinds = {copy.kind for copy in cluster.durability.copies.values()}
        assert kinds == {"single", "tiered"}
        assert events
        assert {e.cause for e in events} == {"bitrot"}
        assert {e.copy for e in events} == {rotted_kind}
