"""Tests for the snapshot storage spec."""

from __future__ import annotations

import pytest

from repro import config
from repro.errors import ConfigError
from repro.memsim.storage import OPTANE_SSD_SPEC, StorageSpec


class TestStorageSpec:
    def test_paper_platform_values(self):
        assert OPTANE_SSD_SPEC.seq_read_bps == config.SSD_SEQ_READ_BPS
        assert OPTANE_SSD_SPEC.random_read_iops == 550_000

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            StorageSpec("bad", 0, 1)
