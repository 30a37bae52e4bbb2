"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list                     # available experiments
    python -m repro run fig5                 # one experiment
    python -m repro run table2 fig7          # several
    python -m repro run all                  # everything (minutes)
    python -m repro table1                   # print the workload catalogue

Output mirrors what the benchmark harness writes to ``results/``.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import experiments as ex
from .errors import ReproError
from .functions import table1
from .report import Table

# Sentinel appended by a bare ``--check`` (no kernel name): gate every
# benchmark in the run at the tight suite-wide regression budget.
_CHECK_ALL = "__all__"


def _run_fig1():
    return ex.fig1_ws_characterization.run("json_load_dump").table.render()


def _run_fig2():
    return ex.fig2_slow_tier_slowdown.run(iterations=10).table.render()


def _run_fig3():
    return ex.fig3_reap_input_sensitivity.run(iterations=2).table.render()


def _run_fig5():
    return ex.fig5_min_cost.run().table.render()


def _run_table2():
    return ex.table2_slow_tier_pct.run().table.render()


def _run_fig6():
    result = ex.fig6_incremental_bins.run()
    return "\n\n".join(fig.render() for fig in result.figures.values())


def _run_fig7():
    return ex.fig7_setup_time.run().table.render()


def _run_fig8():
    return ex.fig8_invocation_time.run(iterations=2).table.render()


def _run_fig9():
    result = ex.fig9_scalability.run()
    return result.table.render() + "\n\n" + result.figure.render(2)


def _run_sec6c3():
    return ex.sec6c3_snapshot_variance.run().table.render()


def _run_fleet():
    result = ex.fleet_study.run()
    return result.table.render() + (
        f"\n\nmean packing-density multiplier: "
        f"{result.mean_density_multiplier:.1f}x, fleet bill savings: "
        f"{result.savings_fraction:.1%}"
    )


def _run_resilience():
    return ex.fleet_resilience.run().table.render()


def _run_durability():
    return ex.durability.run().table.render()


def _run_tco():
    result = ex.tco_frontier.run()
    return result.table.render() + (
        f"\n\nbest two-tier cost: {result.best_two_tier_cost:.3f}, best "
        f"compressed-tier cost: {result.best_compressed_cost:.3f} "
        f"(compressed tiers push the frontier down: "
        f"{result.compressed_beats_two_tier})"
    )


def _run_ablations():
    return "\n\n".join(
        t.render()
        for t in (
            ex.ablations.ablate_bin_count(),
            ex.ablations.ablate_merge_tolerance(),
            ex.ablations.ablate_cost_ratio(),
            ex.ablations.ablate_convergence_window(),
        )
    )


EXPERIMENTS = {
    "fig1": ("Figure 1: WS characterisation (uffd vs DAMON)", _run_fig1),
    "fig2": ("Figure 2: full-slow-tier slowdown", _run_fig2),
    "fig3": ("Figure 3: REAP input sensitivity", _run_fig3),
    "fig5": ("Figure 5: minimum memory cost", _run_fig5),
    "table2": ("Table II: slow-tier offload %", _run_table2),
    "fig6": ("Figure 6: per-bin slowdown/cost curves", _run_fig6),
    "fig7": ("Figure 7: setup time", _run_fig7),
    "fig8": ("Figure 8: total invocation time", _run_fig8),
    "fig9": ("Figure 9: concurrency scalability", _run_fig9),
    "sec6c3": ("Section VI-C3: snapshot cost variance", _run_sec6c3),
    "ablations": ("Design-choice ablations", _run_ablations),
    "fleet": ("Extension: fleet packing density and bill savings", _run_fleet),
    "resilience": (
        "Extension: cluster availability vs hosts lost", _run_resilience
    ),
    "durability": (
        "Extension: snapshot durability vs bit-rot, replication and scrub",
        _run_durability,
    ),
    "tco": (
        "Extension: TCO-vs-slowdown frontier with compressed tiers",
        _run_tco,
    ),
}


def _print_table1() -> str:
    table = Table(
        "Table I: functions, memory configurations and inputs",
        ["function", "description", "memory MB", "input type", "inputs"],
    )
    for row in table1():
        table.add_row(
            row.name,
            row.description,
            row.memory_mb,
            row.input_type,
            ", ".join(row.inputs),
        )
    return table.render()


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; a rejected input prints ``error: <message>`` on
    stderr and exits with status 2 instead of a traceback."""
    try:
        return _main(argv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TOSS reproduction: regenerate the paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("table1", help="print the Table I workload catalogue")
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "names",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    plot = sub.add_parser(
        "plot", help="render an experiment as SVG (fig2/fig5/fig7/fig9)"
    )
    plot.add_argument("name", choices=["fig2", "fig5", "fig7", "fig9"])
    plot.add_argument(
        "--out", default=None, help="output path (default results/<name>.svg)"
    )
    observe = sub.add_parser(
        "observe",
        help="run one experiment under tracing and export the observation",
    )
    observe.add_argument("name", choices=sorted(EXPERIMENTS))
    observe.add_argument(
        "--out",
        default="results/obs",
        help="output directory (default results/obs)",
    )
    observe.add_argument(
        "--include-metrics",
        action="store_true",
        help="also write the Prometheus text next to the trace exports",
    )
    fleet_report_cmd = sub.add_parser(
        "fleet-report",
        help=(
            "run a cluster scenario fully observed and write the fleet "
            "Prometheus text, alerts JSONL, per-host Perfetto traces and "
            "a markdown summary"
        ),
    )
    fleet_report_cmd.add_argument(
        "scenario",
        choices=["steady", "crash", "scrub"],
        help="cluster scenario to run",
    )
    fleet_report_cmd.add_argument(
        "--out",
        default="results/fleet",
        help="output directory (default results/fleet)",
    )
    cluster = sub.add_parser(
        "cluster",
        help="run the fault-tolerant cluster fleet on a synthetic workload",
    )
    cluster.add_argument(
        "--hosts", type=int, default=4, help="fleet size (default 4)"
    )
    cluster.add_argument(
        "--replication", type=int, default=2,
        help="snapshot replication factor (default 2)",
    )
    cluster.add_argument(
        "--requests", type=int, default=200,
        help="requests in the steady stream (default 200)",
    )
    cluster.add_argument(
        "--duration", type=float, default=8.0,
        help="stream duration in simulated seconds (default 8)",
    )
    cluster.add_argument(
        "--crash", type=int, action="append", default=None, metavar="HOST",
        help="crash HOST over the outage window (repeatable)",
    )
    cluster.add_argument(
        "--crash-start", type=float, default=2.0,
        help="outage window start (default 2.0)",
    )
    cluster.add_argument(
        "--crash-end", type=float, default=6.0,
        help="outage window end (default 6.0)",
    )
    bench = sub.add_parser(
        "bench", help="time the hot experiment kernels and write a report"
    )
    bench.add_argument(
        "--filter",
        default="",
        dest="filter_expr",
        metavar="NAME",
        help="only kernels whose name or tags contain NAME (e.g. 'smoke')",
    )
    bench.add_argument(
        "--out", default=None, help="write the toss-bench/v1 JSON report here"
    )
    bench.add_argument(
        "--stacks-out",
        default=None,
        metavar="DIR",
        help=(
            "write per-kernel collapsed-stack profiles (flamegraph.pl "
            "input) into DIR"
        ),
    )
    bench.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_*.json to embed/compare medians against",
    )
    bench.add_argument(
        "--warmup", type=int, default=1, help="untimed runs per kernel"
    )
    bench.add_argument(
        "--repeats", type=int, default=3, help="timed runs per kernel"
    )
    bench.add_argument(
        "--check",
        action="append",
        nargs="?",
        const=_CHECK_ALL,
        default=None,
        metavar="NAME",
        help=(
            "fail (exit 1) if NAME regresses >1.5x its baseline median; "
            "bare --check additionally gates every benchmark in the run "
            "at >1.1x its baseline median"
        ),
    )
    bench.add_argument(
        "--allow-regression",
        action="store_true",
        help="report --check regressions as warnings instead of failing",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for key, (title, _) in EXPERIMENTS.items():
            print(f"  {key:<10s} {title}")
        return 0
    if args.command == "table1":
        print(_print_table1())
        return 0
    if args.command == "plot":
        import pathlib

        from .plot import bars_to_svg, series_to_svg

        if args.name == "fig2":
            table = ex.fig2_slow_tier_slowdown.run(iterations=5).table
            svg = bars_to_svg(table, label_column="function",
                              y_label="slowdown vs DRAM")
        elif args.name == "fig5":
            table = ex.fig5_min_cost.run().table
            svg = bars_to_svg(table, label_column="function",
                              value_columns=["cost", "slowdown"])
        elif args.name == "fig7":
            table = ex.fig7_setup_time.run().table
            svg = bars_to_svg(table, label_column="function",
                              y_label="setup vs DRAM snapshot")
        else:
            svg = series_to_svg(ex.fig9_scalability.run().figure)
        out = pathlib.Path(args.out or f"results/{args.name}.svg")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(svg)
        print(f"wrote {out}")
        return 0
    if args.command == "observe":
        import pathlib

        from .obs import observing, perfetto_json, prometheus_text, spans_to_jsonl

        title, runner = EXPERIMENTS[args.name]
        print(f"== {title} (observed) ==")
        with observing() as obs:
            print(runner())
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        perfetto = out_dir / f"{args.name}.perfetto.json"
        perfetto.write_text(perfetto_json(obs.tracer))
        jsonl = out_dir / f"{args.name}.spans.jsonl"
        jsonl.write_text(spans_to_jsonl(obs.tracer))
        written = [perfetto, jsonl]
        if args.include_metrics:
            prom = out_dir / f"{args.name}.metrics.prom"
            prom.write_text(prometheus_text(obs.metrics))
            written.append(prom)
        print(
            f"captured {len(obs.tracer.spans)} spans, "
            f"{len(obs.tracer.orphan_events)} trace events, "
            f"{len(obs.metrics.families())} metric families"
        )
        for path in written:
            print(f"wrote {path}")
        return 0
    if args.command == "fleet-report":
        import pathlib

        from .experiments import fleet_report

        result = fleet_report.run(args.scenario)
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        prom = out_dir / "fleet.metrics.prom"
        prom.write_text(result.fleet_prom)
        written.append(prom)
        alerts = out_dir / "alerts.jsonl"
        alerts.write_text(result.alerts_jsonl)
        written.append(alerts)
        summary = out_dir / "summary.md"
        summary.write_text(result.summary_md)
        written.append(summary)
        for hid, trace in sorted(result.host_perfetto.items()):
            host_trace = out_dir / f"host{hid}.perfetto.json"
            host_trace.write_text(trace)
            written.append(host_trace)
        print(result.summary_md)
        for path in written:
            print(f"wrote {path}")
        return 0
    if args.command == "cluster":
        from .cluster import (
            ClusterConfig,
            ClusterPlatform,
            FLEET_SUITE,
            steady_requests,
        )
        from .core.toss import TossConfig
        from .faults.plan import FaultPlan, HostFaultSpec

        requests = steady_requests(
            n_requests=args.requests, duration_s=args.duration
        )
        plan = None
        if args.crash:
            plan = FaultPlan(
                hosts=tuple(
                    HostFaultSpec(
                        host=h,
                        crash_windows=((args.crash_start, args.crash_end),),
                    )
                    for h in sorted(set(args.crash))
                )
            )
        fleet = ClusterPlatform(
            ClusterConfig(
                n_hosts=args.hosts, replication_factor=args.replication
            ),
            toss_cfg=TossConfig(
                convergence_window=3, min_profiling_invocations=3
            ),
            plan=plan,
        )
        fleet.deploy_fleet(list(FLEET_SUITE))
        fleet.serve(requests)
        table = Table(
            f"Cluster fleet: {args.hosts} hosts, replication "
            f"{args.replication}, {args.requests} requests",
            ["metric", "value"],
            precision=4,
        )
        table.add_row("availability", fleet.availability())
        table.add_row("mean slowdown", fleet.mean_slowdown())
        table.add_row("kills", fleet.total_kills())
        table.add_row("re-dispatches", fleet.total_redispatches)
        table.add_row("cluster shed", fleet.total_cluster_shed())
        table.add_row("failovers", fleet.total_failovers)
        table.add_row("re-placements", len(fleet.replacements_applied))
        print(table.render())
        if fleet.fleet_ladder.transitions:
            print("fleet health transitions:")
            for at_s, old, new in fleet.fleet_ladder.transitions:
                print(f"  {at_s:8.3f}s  {old.name} -> {new.name}")
        return 0
    if args.command == "bench":
        from .bench import kernels_matching, run_benchmarks, write_report
        from .bench.harness import compare_to_baseline, load_baseline

        kernels = kernels_matching(args.filter_expr)
        if not kernels:
            parser.error(f"no benchmarks match {args.filter_expr!r}")
        baseline = load_baseline(args.baseline) if args.baseline else None
        report = run_benchmarks(
            kernels,
            warmup=args.warmup,
            repeats=args.repeats,
            filter_expr=args.filter_expr,
            baseline=baseline,
            progress=print,
        )
        for rec in report.records:
            speedup = report.speedup(rec.name)
            vs = f"  ({speedup:.2f}x vs baseline)" if speedup else ""
            print(
                f"{rec.name:<24s} median {rec.wall_median_s:8.3f}s  "
                f"{rec.ops_per_s:10.1f} ops/s  "
                f"peak rss {rec.peak_rss_mb:7.1f} MB{vs}"
            )
        if args.out:
            print(f"wrote {write_report(report, args.out)}")
        if args.stacks_out:
            import pathlib

            stacks_dir = pathlib.Path(args.stacks_out)
            stacks_dir.mkdir(parents=True, exist_ok=True)
            for rec in report.records:
                if not rec.collapsed_stacks:
                    continue
                stack_path = stacks_dir / f"{rec.name}.collapsed"
                stack_path.write_text(rec.collapsed_stacks)
                print(f"wrote {stack_path}")
        if args.check:
            named = [name for name in args.check if name != _CHECK_ALL]
            # Named kernels keep the generous 1.5x budget (they gate
            # noisy CI runners on the kernels a PR explicitly claims);
            # a bare --check holds the whole run to within 10% of its
            # baseline so un-named kernels can no longer drift silently.
            failures = compare_to_baseline(
                report, baseline or {}, names=named
            )
            if _CHECK_ALL in args.check:
                failures += [
                    failure
                    for failure in compare_to_baseline(
                        report, baseline or {}, max_regression=1.1
                    )
                    if failure.split(":")[0] not in named
                ]
            verdict = "WARNING" if args.allow_regression else "REGRESSION"
            for failure in failures:
                print(f"{verdict} {failure}", file=sys.stderr)
            if failures and not args.allow_regression:
                return 1
        return 0

    names = list(EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    for name in names:
        title, runner = EXPERIMENTS[name]
        print(f"== {title} ==")
        start = time.time()
        print(runner())
        print(f"[{name} done in {time.time() - start:.1f} s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
