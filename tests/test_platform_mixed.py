"""Tests for report exports."""

from __future__ import annotations

import json

from repro.report import Table


class TestReportExports:
    def test_csv_export(self):
        t = Table("T", ["name", "value"])
        t.add_row("a", 1.25)
        t.add_row("b", 2)
        csv_text = t.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "a,1.25"

    def test_dict_export_json_serialisable(self):
        t = Table("T", ["name", "value"])
        t.add_row("a", 1.25)
        doc = json.dumps(t.to_dicts())
        assert json.loads(doc) == [{"name": "a", "value": 1.25}]
