"""Outside-in benchmark of the TOSS reproduction.

Every run of a workload is a fresh child process (``child.py``), so every
run is cold.  The parent starts one child at a time, each single-threaded,
and measures set-up time, peak RSS and CPU time from outside.  Set-up-only
children build the workload and exit before its body, to add samples of
set-up time.

Timed run of one workload (prints one JSON result as its last line)::

    python3 bench/run.py --workload burst --seed 1 --seconds 10 --trace 0

Full set: every workload, five cold runs, five set-up-only runs and one
traced run each, written to ``bench/out/results.json``::

    python3 bench/run.py [--seed 1] [--quick] [--out PATH]

Compare two sets::

    python3 bench/run.py compare bench/results/seed_a.json bench/results/seed_b.json
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCHEMA = "toss-outside-bench/v1"
QUICK_SCALE = 0.05
SET_RUNS = 5
CHILD_S = 2.5
"""Nominal seconds of one cold child; sets how many a timed run starts."""
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 150.0
"""No new child starts once a timed run could not finish by then."""

HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "cpu_s")
REPORTED_ONLY = {
    # name: (unit, better) of metrics printed and recorded next to the
    # BENCHMARK.json ones.  The simulated metrics are identical for one
    # seed but move across seeds by more than any bound a seed-varying
    # gate could use (burst's sim_slowdown spans 2.10-2.88 over seeds
    # 1-10), so `compare` checks them between sets of one seed, where
    # any change is a change.
    "cpu_s": ("s", "lower"),
    "sim_slowdown": ("x", "lower"),
    "sim_cost_vs_dram": ("ratio", "lower"),
    "sim_latency_p50_s": ("s", "lower"),
    "sim_latency_p99_s": ("s", "lower"),
    "sim_setup_p99_s": ("s", "lower"),
    "sim_slo_attainment": ("fraction", "higher"),
    "error_rate": ("fraction", "lower"),
}
PERCENTILES = {"sim_latency_p50_s": 50, "sim_latency_p99_s": 99, "sim_setup_p99_s": 99}
GENERATOR_NOTE = (
    "open loop: arrivals are fixed in simulated time before serving and "
    "latency is measured from each request's due arrival, so generator "
    "lateness is 0 by construction"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


def check_checkout() -> None:
    """Fail early, without a result, where the program is not present."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    compileall.compile_dir(ROOT / "src", quiet=1)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads_per_child": 1,
    }


# -- children -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(name: str, seed: int, scale: float, mode: str) -> dict:
    """Run one cold child (``mode`` as in ``child.py``) to completion; a
    crash yields a failed record."""
    cmd = [
        sys.executable, str(BENCH / "child.py"), name,
        "--seed", str(seed), "--scale", repr(scale), "--mode", mode,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    host = {
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit_code": proc.returncode,
    }
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        ops = WORKLOADS[name].nominal_ops(scale)
        return {"workload": name, "seed": seed, "mode": mode, "crashed": True,
                "ops": ops, "failed_ops": ops, "checks": ["child crashed"], **host}
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("body_start_monotonic") - spawned
    record.update(host)
    if record["checks"]:
        record["failed_ops"] = record["ops"]
    return record


def measure(name: str, seed: int, scale: float, *, plain: int, setup: int,
            traced: int) -> list[dict]:
    """Cold children of each mode, interleaved so that a noisy spell of
    the host falls on every mode alike.  No child starts once the run
    could not end by ``RUN_DEADLINE_S``."""
    records: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    for i in range(max(plain, setup, traced)):
        for mode, count in (("plain", plain), ("setup", setup), ("traced", traced)):
            if i >= count:
                continue
            if records and time.monotonic() - start + longest > RUN_DEADLINE_S:
                return records
            began = time.monotonic()
            records.append(spawn(name, seed, scale, mode))
            longest = max(longest, time.monotonic() - began)
    return records


def timed_runs(name: str, seed: int, seconds: float, scale: float,
               trace: bool) -> list[dict]:
    """One timed run: ``round(seconds / CHILD_S)`` cold children (at least
    three), each followed by a set-up-only child; with ``trace``, half as
    many untraced/traced pairs (at least one).  The count is fixed before
    the run starts, so a faster program is measured on as many processes
    as a slower one."""
    n = max(3, round(seconds / CHILD_S))
    if trace:
        pairs = max(1, n // 2)
        return measure(name, seed, scale, plain=pairs, setup=0, traced=pairs)
    return measure(name, seed, scale, plain=n, setup=n, traced=0)


# -- aggregation --------------------------------------------------------------


def run_value(record: dict, metric: str):
    if metric in HOST_METRICS:
        return record.get(metric)
    return record.get("sim", {}).get(metric)


def metric_values(records: list[dict], metric: str) -> list[float]:
    """Values of ``metric`` over the records that measure it: set-up time
    over cold and set-up-only children, everything else over cold ones."""
    modes = ("plain", "setup") if metric == "setup_s" else ("plain",)
    values = [
        run_value(r, metric)
        for r in records
        if r["mode"] in modes and not r.get("crashed")
    ]
    return [v for v in values if v is not None]


def summarize(records: list[dict]) -> dict:
    """Medians, quartiles, correctness and per-layer metrics of one set."""
    spec = load_spec()
    plain = [r for r in records if r["mode"] == "plain"]
    traced = [r for r in records if r["mode"] == "traced"]
    problems = [
        f"run {i}: {check}" for i, r in enumerate(records) for check in r["checks"]
    ]
    digests = {r["digest"] for r in plain + traced if not r.get("crashed")}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different sim digests across runs")
    e2e = {}
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(n, u, b, None) for n, (u, b) in REPORTED_ONLY.items()]
    sample = next((r for r in plain if not r.get("crashed")), {})
    for metric, unit, better, bound in metrics:
        values = metric_values(records, metric)
        if not values:
            continue
        q1, median, q3 = stats.quartiles(values)
        # The host is shared and its noise only ever adds time, in spells
        # of seconds to minutes, so wall_s is the lower quartile of a
        # fixed count of processes: over ten runs per workload its spread
        # was below the median's on every workload.
        value = q1 if metric == "wall_s" else median
        entry = {"unit": unit, "better": better, "value": value,
                 "median": median, "q1": q1, "q3": q3, "values": values}
        if bound is not None:
            entry["bound"] = bound
        if metric in sample.get("samples", {}):
            n = sample["samples"][metric]
            entry["samples"] = n
            entry["samples_beyond"] = stats.samples_beyond(n, PERCENTILES[metric])
        e2e[metric] = entry
    result = {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["ops"] for r in records),
        "failed": sum(r["failed_ops"] for r in records),
        "runs": len(plain),
        "setup_runs": len(records) - len(plain) - len(traced),
        "traced_runs": len(traced),
        "digest": sorted(digests),
        "end_to_end": e2e,
    }
    ok_traced = [r for r in traced if not r.get("crashed")]
    if ok_traced:
        result["per_layer"] = per_layer(spec, ok_traced, e2e.get("wall_s"))
        result["missing_layers"] = ok_traced[0].get("missing_layers", [])
    return result


def per_layer(spec: dict, traced: list[dict], wall: dict | None) -> dict:
    """Layer metrics of the traced runs: counts are identical across
    runs, times are medians, and the tracing overhead compares the
    traced runs' wall time with the untraced runs' ``wall_s``, taken the
    same way."""
    out = {}
    for metric in (m["name"] for m in spec["per_layer"]):
        if metric == "process.cpu_s":
            values = [r["cpu_s"] for r in traced]
        elif metric == "process.trace_overhead_frac":
            traced_wall = stats.quartiles([r["wall_s"] for r in traced])[0]
            values = [traced_wall / wall["value"] - 1.0 if wall else 0.0]
        else:
            values = [r["layers"].get(metric, 0) for r in traced]
        out[metric] = values[0] if len(set(values)) == 1 else stats.quartiles(values)[1]
    return out


def result_line(summary: dict, trace: bool) -> dict:
    spec = load_spec()
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = summary.get("per_layer", {})
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v["value"] for k, v in summary["end_to_end"].items()}
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }


# -- reporting ----------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_summary(name: str, summary: dict) -> None:
    print(f"== {name}: {summary['runs']} cold runs, "
          f"{summary['setup_runs']} set-up-only, {summary['traced_runs']} traced; "
          f"attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct {summary['correct']}")
    for problem in summary["problems"]:
        print(f"   CHECK FAILED {problem}")
    for metric, e in summary["end_to_end"].items():
        extra = ""
        if "samples" in e:
            extra = f"  (n={e['samples']}, {e['samples_beyond']} beyond)"
        gate = f"bound {e['bound']:g}" if "bound" in e else "reported"
        stat = "q1" if metric == "wall_s" else "median"
        print(f"   {metric:<24} {fmt(e['value']):>12} {e['unit']:<8} {stat:<6} "
              f"[q1 {fmt(e['q1'])}, q3 {fmt(e['q3'])}] {e['better']}, "
              f"{gate}{extra}")
    for metric, value in summary.get("per_layer", {}).items():
        if value:
            print(f"   layer {metric:<38} {fmt(value)}")
    print(f"   generator lateness 0 s: {GENERATOR_NOTE}")


def compare(path_a: str, path_b: str) -> int:
    """Print per workload x metric verdicts; exit 1 on any regression."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    regressed = 0
    print(f"{'workload':<21} {'metric':<22} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'delta':>8}  verdict")
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, ea in wa["end_to_end"].items():
            eb = wb["end_to_end"].get(metric)
            if eb is None:
                continue
            # Gated host metrics carry their bound; simulated metrics are
            # deterministic, so any change is a change; cpu_s is reported.
            bound = ea.get("bound", None if metric in HOST_METRICS else 0.0)
            verdict = "reported"
            if bound is not None:
                verdict = stats.verdict(ea["values"], eb["values"],
                                        better=ea["better"], bound=bound)
            regressed += verdict == "regressed"
            delta = stats.relative_change(ea["median"], eb["median"])
            print(f"{name:<21} {metric:<22} "
                  f"{fmt(ea['median']) + ' [' + fmt(ea['q1']) + ', ' + fmt(ea['q3']) + ']':>36} "
                  f"{fmt(eb['median']) + ' [' + fmt(eb['q1']) + ', ' + fmt(eb['q3']) + ']':>36} "
                  f"{delta:>+8.2%}  {verdict}")
    print(f"\n{'workload':<21} {'layer self time (traced run)':<38} {'A s':>10} {'B s':>10} {'delta s':>9}")
    for name in shared:
        la = a["workloads"][name].get("per_layer", {})
        lb = b["workloads"][name].get("per_layer", {})
        for metric in (m for m in la if m.endswith(".self_s") and m in lb):
            if la[metric] or lb[metric]:
                print(f"{name:<21} {metric:<38} {fmt(la[metric]):>10} "
                      f"{fmt(lb[metric]):>10} {lb[metric] - la[metric]:>+9.4f}")
    return 1 if regressed else 0


# -- entry points -------------------------------------------------------------


def timed_main(args) -> int:
    records = timed_runs(args.workload, args.seed, args.seconds,
                         args.scale, bool(args.trace))
    summary = summarize(records)
    print_summary(args.workload, summary)
    print(json.dumps(result_line(summary, bool(args.trace))))
    return 0 if summary["correct"] else 1


def set_main(args) -> int:
    names = args.workloads or list(WORKLOADS)
    why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
    doc = {
        "schema": SCHEMA,
        "created_unix": int(time.time()),
        "env": environment(),
        "seed": args.seed,
        "scale": args.scale,
        "runs_per_set": SET_RUNS,
        "generator_lateness_s": 0.0,
        "generator_note": GENERATOR_NOTE,
        "workloads": {},
    }
    correct = True
    for name in names:
        records = measure(name, args.seed, args.scale,
                          plain=SET_RUNS, setup=SET_RUNS, traced=1)
        summary = summarize(records)
        summary["why"] = why[name]
        summary["records"] = records
        doc["workloads"][name] = summary
        correct &= summary["correct"]
        print_summary(name, summary)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", dest="workloads", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long (timed run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"run every workload at {QUICK_SCALE:g} of its size")
    parser.add_argument("--out", default=str(BENCH / "out" / "results.json"))
    args = parser.parse_args(argv)
    args.scale = QUICK_SCALE if args.quick else 1.0
    try:
        load_spec()
        check_checkout()
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.seconds is not None:
        if not args.workloads or len(args.workloads) != 1:
            parser.error("--seconds needs exactly one --workload")
        args.workload = args.workloads[0]
        return timed_main(args)
    return set_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
