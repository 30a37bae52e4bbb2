import pytest

import run


def record(wall, *, digest="d1", checks=(), setup=0.5, rss=100.0):
    return {
        "mode": "plain",
        "wall_s": wall, "setup_s": setup, "peak_rss_mb": rss, "cpu_s": wall,
        "ops": 10, "failed_ops": 0, "sim": {"sim_slowdown": 1.5},
        "samples": {}, "digest": digest, "checks": list(checks),
    }


def setup_only(setup):
    return {"mode": "setup", "setup_s": setup, "peak_rss_mb": 50.0, "cpu_s": setup,
            "ops": 0, "failed_ops": 0, "checks": []}


def crashed(mode="plain"):
    return {"mode": mode, "crashed": True, "ops": 10, "failed_ops": 10,
            "checks": ["child crashed"], "peak_rss_mb": 5.0, "cpu_s": 0.1}


def test_wall_is_a_lower_quartile_and_setup_only_children_add_setup_samples():
    summary = run.summarize([
        record(2.0, setup=0.4), setup_only(0.1),
        record(1.0, setup=0.9), setup_only(0.2),
        record(3.0, setup=0.5), setup_only(0.3),
        record(4.0, setup=0.6),
    ])
    assert summary["correct"] and summary["attempted"] == 40
    assert (summary["runs"], summary["setup_runs"], summary["traced_runs"]) == (4, 3, 0)
    e2e = summary["end_to_end"]
    assert e2e["wall_s"]["value"] == pytest.approx(1.25)
    assert e2e["wall_s"]["median"] == pytest.approx(2.5)
    assert e2e["setup_s"]["values"] == [0.4, 0.1, 0.9, 0.2, 0.5, 0.3, 0.6]
    assert e2e["setup_s"]["value"] == pytest.approx(0.4)
    # Set-up-only children do not run the body: no RSS or CPU samples.
    assert e2e["peak_rss_mb"]["values"] == [100.0] * 4
    assert e2e["sim_slowdown"]["value"] == 1.5 and "bound" not in e2e["sim_slowdown"]
    line = run.result_line(summary, trace=False)
    assert line["metrics"]["wall_s"] == {"value": pytest.approx(1.25), "unit": "s"}
    assert set(line["metrics"]) == {m["name"] for m in run.load_spec()["end_to_end"]}


@pytest.mark.parametrize(
    "runs, failed",
    [
        ([record(1.0), record(1.0, digest="d2")], 0),
        ([record(1.0), record(1.0, checks=["bad bill"])], 0),
        ([record(1.0), crashed()], 10),
        ([record(1.0), record(1.0), crashed("setup")], 10),
    ],
)
def test_divergent_digests_failed_checks_and_crashes_are_incorrect(runs, failed):
    summary = run.summarize(runs)
    assert not summary["correct"]
    assert summary["attempted"] == sum(r["ops"] for r in runs)
    assert summary["failed"] == failed


def test_a_timed_run_starts_a_count_of_children_fixed_by_its_length(monkeypatch):
    modes = []
    monkeypatch.setattr(run, "spawn", lambda name, seed, scale, mode: modes.append(mode) or {})
    run.timed_runs("burst", 1, 15.0, 1.0, trace=False)
    assert modes == ["plain", "setup"] * 6
    modes.clear()
    run.timed_runs("burst", 1, 1.0, 1.0, trace=False)
    assert modes == ["plain", "setup"] * 3
    modes.clear()
    run.timed_runs("burst", 1, 15.0, 1.0, trace=True)
    assert modes == ["plain", "traced"] * 3
