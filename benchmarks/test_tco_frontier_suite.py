"""Full-suite TCO frontier: every Table I function, every swept
configuration, budgets 0.05/0.15/0.30 (~16 s).

Writes ``results/extension_tco_frontier.txt``: the frontier table (mean
cost and slowdown per configuration and budget) followed by the 120
per-function costs behind the means, which the CI ``tco-smoke`` job
diffs byte for byte.  The committed small grid covers one function; this
one shows every point the placement search decides.
"""

from repro.experiments import tco_frontier
from repro.functions import function_names
from repro.report import Table

BUDGETS = (0.05, 0.15, 0.30)

SUPERSETS = (("dram+lz4+pmem", "dram+pmem"), ("dram+lz4+zstd", "dram+zstd"))
"""(richer, poorer) configurations whose tiers include the poorer's."""


def _run():
    names = function_names()
    result = tco_frontier.run(function_names=names, slowdown_thresholds=BUDGETS)
    per_function = Table(
        "Per-function normalised memory cost (all-DRAM = 1.0)",
        ["function", "config", *(f"budget {b:.2f}" for b in BUDGETS)],
    )
    costs = {(p.config, p.threshold): p.costs for p in result.points}
    for name in names:
        for config, _ in tco_frontier.default_configs():
            per_function.add_row(
                name, config, *(costs[config, b][name] for b in BUDGETS)
            )
    return result, per_function, costs


def test_full_suite_frontier(benchmark, emit):
    result, per_function, costs = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    emit(
        "extension_tco_frontier",
        result.table.render() + "\n\n" + per_function.render(),
    )

    assert result.compressed_beats_two_tier
    for point in result.points:
        assert point.slowdown <= 1.0 + point.threshold + 1e-9
    # The search is exact, so every function's cost falls with a looser
    # budget and on a chain whose tiers include another's.
    for name in function_names():
        for config, _ in tco_frontier.default_configs():
            series = [costs[config, b][name] for b in BUDGETS]
            assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
        for richer, poorer in SUPERSETS:
            for budget in BUDGETS:
                assert (
                    costs[richer, budget][name]
                    <= costs[poorer, budget][name] + 1e-9
                )
