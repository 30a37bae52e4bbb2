"""Tests for the TCO-vs-slowdown frontier experiment."""

from __future__ import annotations

import pytest

from repro.experiments import tco_frontier

FLOAT_PIN = {
    ("dram+pmem", 0.05): (
        "0x1.c144b190fcd0cp-2",
        "0x1.0acbf0276c8e9p+0",
        {"float_operation": "0x1.c144b190fcd0cp-2"},
    ),
    ("dram+lz4+pmem", 0.05): (
        "0x1.9c94091f78acfp-2",
        "0x1.01dc85b3ab6c1p+0",
        {"float_operation": "0x1.9c94091f78acfp-2"},
    ),
    ("dram+zstd", 0.05): (
        "0x1.2a587a2d57ad4p-2",
        "0x1.050d6ae7acb7ap+0",
        {"float_operation": "0x1.2a587a2d57ad4p-2"},
    ),
    ("dram+lz4+zstd", 0.05): (
        "0x1.2a2375111497fp-2",
        "0x1.0472c6babf9a2p+0",
        {"float_operation": "0x1.2a2375111497fp-2"},
    ),
    ("dram+pmem", 0.3): (
        "0x1.bab4761958831p-2",
        "0x1.10346ca57d29ep+0",
        {"float_operation": "0x1.bab4761958831p-2"},
    ),
    ("dram+lz4+pmem", 0.3): (
        "0x1.9c94091f78acfp-2",
        "0x1.01dc85b3ab6c1p+0",
        {"float_operation": "0x1.9c94091f78acfp-2"},
    ),
    ("dram+zstd", 0.3): (
        "0x1.2a587a2d57ad4p-2",
        "0x1.050d6ae7acb7ap+0",
        {"float_operation": "0x1.2a587a2d57ad4p-2"},
    ),
    ("dram+lz4+zstd", 0.3): (
        "0x1.2a2375111497fp-2",
        "0x1.0472c6babf9a2p+0",
        {"float_operation": "0x1.2a2375111497fp-2"},
    ),
}
"""``float.hex`` of every small-grid point's (cost, slowdown, per-function
costs), keyed by (config, budget).  The golden table renders three
decimals; this pin catches last-bit drift in the search or Equation 1."""


@pytest.fixture(scope="module")
def result():
    return tco_frontier.run(
        function_names=["float_operation"],
        slowdown_thresholds=(0.05, 0.30),
    )


class TestFrontierShape:
    def test_dram_only_endpoint_normalizes_to_one(self, result):
        assert result.dram_only_cost == 1.0
        anchor = result.table.rows[0]
        assert anchor[0] == "dram-only"
        assert anchor[2] == 1.0

    def test_one_point_per_config_and_budget(self, result):
        configs = [name for name, _ in tco_frontier.default_configs()]
        assert len(result.points) == len(configs) * 2
        seen = {(p.config, p.threshold) for p in result.points}
        assert len(seen) == len(result.points)

    def test_slowdowns_respect_budget(self, result):
        for p in result.points:
            assert p.slowdown <= 1.0 + p.threshold + 1e-9

    def test_costs_between_floor_and_dram(self, result):
        for p in result.points:
            assert 0.0 < p.cost <= 1.0 + 1e-9


class TestFrontierClaims:
    def test_compressed_never_worse_at_fixed_budget(self, result):
        """Every compressed chain sits at or below the two-tier point at
        each budget: guaranteed for ``dram+lz4+pmem`` (its tiers include
        ``dram+pmem``'s and the search is exact), checked for the rest."""
        two = {
            p.threshold: p.cost
            for p in result.points
            if p.config == tco_frontier.TWO_TIER_NAME
        }
        for p in result.points:
            if p.config == tco_frontier.TWO_TIER_NAME:
                continue
            assert p.cost <= two[p.threshold] + 1e-9

    def test_best_compressed_beats_best_two_tier(self, result):
        assert result.best_compressed_cost < result.best_two_tier_cost
        assert result.compressed_beats_two_tier

    def test_best_cost_unknown_config_raises(self, result):
        with pytest.raises(KeyError):
            result.best_cost("nope")


class TestDeterminism:
    def test_repeat_run_is_identical(self, result):
        again = tco_frontier.run(
            function_names=["float_operation"],
            slowdown_thresholds=(0.05, 0.30),
        )
        assert [(p.config, p.threshold, p.cost, p.slowdown) for p in again.points] == [
            (p.config, p.threshold, p.cost, p.slowdown) for p in result.points
        ]


class TestFloatExactPin:
    def test_points_match_float_hex_pin(self, result):
        got = {
            (p.config, p.threshold): (
                p.cost.hex(),
                p.slowdown.hex(),
                {name: cost.hex() for name, cost in p.costs.items()},
            )
            for p in result.points
        }
        assert got == FLOAT_PIN
