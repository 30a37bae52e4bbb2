"""TCO-frontier smoke: the CI ``tco-smoke`` job runs this file alone.

Reproduces the frontier on a small grid (one function, two budgets) and
diffs the rendered table byte-for-byte against the committed golden
fixture — the sweep is deterministic (fixed evaluation-trace seed, an
exact search over measured executions), so any drift means the
compressed-tier model or the optimizer changed.  The acceptance claims (all-DRAM
endpoint at 1.0, compressed frontier below the two-tier frontier) are
asserted directly as well, so the job fails loudly even if someone
regenerates the fixture.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import tco_frontier

FIXTURE = (
    Path(__file__).parent.parent
    / "tests"
    / "fixtures"
    / "tco_frontier_small.txt"
)


def _small_grid():
    return tco_frontier.run(
        function_names=["float_operation"],
        slowdown_thresholds=(0.05, 0.30),
    )


def test_small_grid_matches_golden_fixture():
    result = _small_grid()
    assert result.table.render() + "\n" == FIXTURE.read_text()


def test_acceptance_claims_hold():
    result = _small_grid()
    assert result.dram_only_cost == 1.0
    assert result.best_compressed_cost < result.best_two_tier_cost
