"""Tests for the ``python -m repro`` CLI."""

from __future__ import annotations

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.errors import ConfigError


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "pagerank" in out and "1024" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig42"])

    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "done in" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_plot_writes_svg(self, tmp_path, capsys):
        out = tmp_path / "fig2.svg"
        assert main(["plot", "fig2", "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "slowdown" in svg

    def test_plot_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["plot", "fig42"])

    def test_observe_writes_trace_exports(self, tmp_path, capsys):
        import json

        assert main(["observe", "fig1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "observed" in out and "captured" in out
        trace = json.loads((tmp_path / "fig1.perfetto.json").read_text())
        assert trace["traceEvents"][0]["ph"] == "M"
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        jsonl = (tmp_path / "fig1.spans.jsonl").read_text()
        assert jsonl and json.loads(jsonl.splitlines()[0])["span_id"]
        # Metrics are opt-in (--include-metrics): trace-only by default.
        assert not (tmp_path / "fig1.metrics.prom").exists()

    def test_observe_include_metrics_writes_prometheus(self, tmp_path):
        assert main(
            ["observe", "fig1", "--out", str(tmp_path), "--include-metrics"]
        ) == 0
        prom = (tmp_path / "fig1.metrics.prom").read_text()
        assert "toss_execute_seconds_p95" in prom

    def test_observe_is_inert_afterwards(self, tmp_path, capsys):
        from repro.obs import runtime

        assert main(["observe", "fig1", "--out", str(tmp_path)]) == 0
        assert runtime.active() is None

    def test_observe_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["observe", "fig42"])

    def test_cluster_crash_outside_fleet_rejected(self, capsys):
        with pytest.raises(ConfigError, match=r"host 9\b.*n_hosts=4"):
            main(["cluster", "--hosts", "4", "--crash", "9"])
        assert capsys.readouterr().out == ""
