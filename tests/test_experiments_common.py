"""Tests for the shared experiment plumbing and extended-suite TOSS runs."""

from __future__ import annotations

from repro.baselines import TossSystem
from repro.experiments.common import (
    ALL_INPUTS,
    INPUT_IV_ONLY,
    dram_cached,
    reap_cached,
    toss_cached,
    vanilla_cached,
    warm_time_cached,
)
from repro.functions.extended import WEB_RENDER


class TestCaches:
    def test_toss_cached_identity(self):
        a = toss_cached("pyaes", ALL_INPUTS)
        b = toss_cached("pyaes", ALL_INPUTS)
        assert a is b

    def test_snapshot_variants_distinct(self):
        assert toss_cached("pyaes", ALL_INPUTS) is not toss_cached(
            "pyaes", INPUT_IV_ONLY
        )

    def test_reap_cached_keyed_by_snapshot_input(self):
        assert reap_cached("pyaes", 0) is not reap_cached("pyaes", 3)
        assert reap_cached("pyaes", 0) is reap_cached("pyaes", 0)

    def test_dram_and_vanilla_cached(self):
        assert dram_cached("pyaes") is dram_cached("pyaes")
        assert vanilla_cached("pyaes") is vanilla_cached("pyaes")

    def test_warm_time_positive_and_stable(self):
        a = warm_time_cached("pyaes", 3)
        b = warm_time_cached("pyaes", 3)
        assert a == b > 0


class TestExtendedSuiteEndToEnd:
    def test_web_render_tiers(self):
        """An extended-suite function runs the whole pipeline."""
        system = TossSystem(WEB_RENDER, convergence_window=4)
        assert system.slow_fraction > 0.8
        assert system.analysis.cost < 0.6
        out = system.invoke(3, 0)
        assert out.setup_time_s < 0.02
