"""Background scrubbing: config, token-bucket pacing, bad-chunk reports."""

from __future__ import annotations

import numpy as np
import pytest

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
                s.page_versions[damage_page] += np.uint64(1)
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
