"""Background scrubbing: config, SSD pacing, I/O accounting, bad-chunk reports."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import ChunkIndex, ScrubConfig, run_scrub_pass
from repro.errors import ConfigError
from repro.vm.snapshot import SingleTierSnapshot


def snap(n_pages: int = 1024) -> SingleTierSnapshot:
    return SingleTierSnapshot(
        n_pages=n_pages,
        page_versions=np.arange(n_pages, dtype=np.uint64),
        label="scrubbed",
    )


class TestScrubConfig:
    def test_defaults_valid(self):
        cfg = ScrubConfig()
        assert cfg.interval_s > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_s": 0.0},
            {"interval_s": -1.0},
            {"chunk_pages": 0},
            {"ops_per_page": 0.0},
            {"interval_s": float("nan")},
            {"interval_s": float("inf")},
            {"ops_per_page": float("nan")},
            {"ops_per_page": float("inf")},
            {"chunk_pages": 1.5},
            {"chunk_pages": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScrubConfig(**kwargs)


class TestRunScrubPass:
    def _copies(self, n=2, damage_page=None):
        copies = []
        for i in range(n):
            s = snap()
            index = ChunkIndex.for_snapshot(s, 256)
            if damage_page is not None and i == 0:
                s.write_pages(
                    [damage_page], s.read_pages([damage_page]) + np.uint64(1)
                )
            copies.append((i, s, index))
        return copies

    def test_clean_pass_reports_nothing_bad(self):
        cfg = ScrubConfig(interval_s=1.0, ops_per_page=1.0)
        report = run_scrub_pass(
            self._copies(), cfg, ssd_iops=1e9, start_s=3.0
        )
        assert report.bad == []
        assert report.copies_scanned == 2
        assert report.chunks_scanned == 8  # 4 chunks per 1024-page copy
        assert report.ops_consumed == pytest.approx(2048.0)
        assert report.started_s == 3.0
        assert report.finished_s > report.started_s

    def test_bad_chunks_attributed_to_their_copy(self):
        cfg = ScrubConfig(interval_s=1.0, ops_per_page=1.0)
        report = run_scrub_pass(
            self._copies(damage_page=700),
            cfg,
            ssd_iops=1e9,
            start_s=0.0,
        )
        assert report.bad == [(0, [2])]

    def test_throttled_bucket_queues_concurrent_scrubs(self):
        # Two copies scrubbed through one slow SSD bucket: the second
        # process queues behind the first, so the pass records waiting
        # time and takes at least the serialised duration.
        cfg = ScrubConfig(interval_s=1.0, ops_per_page=1.0)
        report = run_scrub_pass(
            self._copies(),
            cfg,
            ssd_iops=1024.0,
            start_s=0.0,
        )
        assert report.queued_s > 0.0
        # Longer than one copy's uncontended scan (4 chunks * 0.25 s):
        # the queueing delay is visible in the pass duration.
        assert report.duration_s > 1.0

    def test_faster_bucket_scrubs_sooner(self):
        cfg = ScrubConfig(interval_s=1.0, ops_per_page=1.0)
        slow = run_scrub_pass(
            self._copies(), cfg, ssd_iops=1024.0
        )
        fast = run_scrub_pass(
            self._copies(), cfg, ssd_iops=8192.0
        )
        assert fast.duration_s < slow.duration_s

    def test_throttled_pass_pinned(self):
        """Three copies of different sizes, one damaged twice, through a
        bucket slow enough to queue; recorded as ``float.hex`` from the
        generator-process scrubber this pass replaced."""
        copies = []
        for copy_id, n_pages in zip((10, 11, 12), (1024, 640, 300)):
            s = snap(n_pages)
            index = ChunkIndex.for_snapshot(s, 128)
            if copy_id == 11:
                s.write_pages([200, 600], s.read_pages([200, 600]) + np.uint64(1))
            copies.append((copy_id, s, index))
        report = run_scrub_pass(
            copies,
            ScrubConfig(interval_s=1.0, ops_per_page=0.75),
            ssd_iops=300.0,
            start_s=2.5,
        )
        assert report.finished_s.hex() == "0x1.aeb851eb851ecp+2"
        assert report.queued_s.hex() == "0x1.17ae147ae147cp+2"
        assert report.ops_consumed.hex() == "0x1.7040000000000p+10"
        assert report.bad == [(11, [1, 4])]
        assert (report.copies_scanned, report.chunks_scanned) == (3, 16)


class TestScrubPassAccounting:
    """The pass's SSD budget starts with one second of IOPS and refills
    at ``ssd_iops``: it hands out every op the chunks ask for, and a pass
    that reads more than the opening burst takes at least the time to
    refill the rest."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=900),
                st.sampled_from([1, 50, 128, 256]),
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0.05, max_value=4.0),
        st.one_of(
            st.floats(min_value=1e5, max_value=1e9),
            st.floats(min_value=20.0, max_value=2000.0),
        ),
        st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=80, deadline=None)
    def test_pass_accounts_every_op(self, sizes, ops_per_page, ssd_iops, start_s):
        copies = [
            (i, s, ChunkIndex.for_snapshot(s, chunk_pages))
            for i, (n_pages, chunk_pages) in enumerate(sizes)
            for s in [snap(n_pages)]
        ]
        cfg = ScrubConfig(ops_per_page=ops_per_page)
        report = run_scrub_pass(copies, cfg, ssd_iops=ssd_iops, start_s=start_s)
        pages = sum(n_pages for n_pages, _ in sizes)
        assert report.ops_consumed == pytest.approx(pages * ops_per_page, rel=1e-12)
        assert report.chunks_scanned == sum(
            index.n_chunks for _, _, index in copies
        )
        assert report.queued_s >= 0.0
        floor_s = (report.ops_consumed - ssd_iops) / ssd_iops
        assert report.duration_s >= floor_s - 1e-9 * max(1.0, start_s, floor_s)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ssd_iops": float("nan")},
            {"ssd_iops": float("inf")},
            {"ssd_iops": 0.0},
            {"ssd_iops": 10.0, "start_s": float("nan")},
            {"ssd_iops": 10.0, "start_s": float("inf")},
            {"ssd_iops": 10.0, "start_s": -1.0},
            {"ssd_iops": "x"},
            {"ssd_iops": None},
            {"ssd_iops": True},
            {"ssd_iops": 10.0, "start_s": True},
        ],
    )
    def test_invalid_pass_inputs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            run_scrub_pass([], ScrubConfig(), **kwargs)
