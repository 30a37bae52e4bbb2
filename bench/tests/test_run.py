"""End-to-end runs of ``bench/run.py`` at 1/20 size."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_quick_set_runs_every_workload_within_a_minute(tmp_path):
    out = tmp_path / "quick.json"
    start = time.monotonic()
    proc = run_bench("--quick", "--out", str(out))
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert doc["env"]["nproc"] >= 1 and doc["env"]["numpy"]
    for name, summary in doc["workloads"].items():
        assert summary["correct"], (name, summary["problems"])
        assert (summary["runs"], summary["setup_runs"], summary["traced_runs"]) == (5, 5, 1)
        assert summary["why"] == next(
            w["why"] for w in SPEC["workloads"] if w["name"] == name)
        assert len(summary["digest"]) == 1
        for metric in SPEC["end_to_end"]:
            assert metric["name"] in summary["end_to_end"], (name, metric)
        assert summary["per_layer"]["process.unattributed_frac"] <= 0.10
    # A set compared with itself has no regression.
    compared = run_bench("compare", str(out), str(out))
    assert compared.returncode == 0 and "regressed" not in compared.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_timed_run_prints_the_result_line(trace, section):
    proc = run_bench("--workload", "prepare_fleet", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "burst", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
