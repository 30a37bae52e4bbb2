"""Tests for function models and the Table I suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.errors import ConfigError
from repro.functions import (
    SUITE,
    FunctionModel,
    InputSpec,
    get_function,
    table1,
)


class TestInputSpec:
    def test_valid(self):
        InputSpec("x", 0.1, 0.05, 0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_dram_s=0.0, stall_share=0.1, ws_fraction=0.1),
            dict(t_dram_s=0.1, stall_share=0.0, ws_fraction=0.1),
            dict(t_dram_s=0.1, stall_share=1.0, ws_fraction=0.1),
            dict(t_dram_s=0.1, stall_share=0.1, ws_fraction=0.0),
            dict(t_dram_s=0.1, stall_share=0.1, ws_fraction=1.1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            InputSpec("x", **kwargs)


class TestFunctionModel:
    def test_geometry(self, tiny_function):
        assert tiny_function.n_pages == 128 * 256
        assert tiny_function.ws_pages(0) == round(0.05 * tiny_function.n_pages)

    def test_total_accesses_from_stall_share(self, tiny_function):
        spec = tiny_function.input_spec(3)
        expected = spec.t_dram_s * spec.stall_share / config.DRAM_LOAD_LATENCY_S
        assert tiny_function.total_accesses(3) == pytest.approx(expected, abs=1)

    def test_input_index_validated(self, tiny_function):
        with pytest.raises(ConfigError):
            tiny_function.input_spec(4)
        with pytest.raises(ConfigError):
            tiny_function.input_spec(-1)

    def test_guest_must_be_bundle_multiple(self, tiny_function):
        with pytest.raises(ConfigError):
            FunctionModel(
                name="bad",
                description="",
                guest_mb=100,
                input_type="N",
                inputs=tiny_function.inputs,
                bands=tiny_function.bands,
            )

    def test_inputs_must_be_time_ordered(self, tiny_function):
        with pytest.raises(ConfigError):
            FunctionModel(
                name="bad",
                description="",
                guest_mb=128,
                input_type="N",
                inputs=tuple(reversed(tiny_function.inputs)),
                bands=tiny_function.bands,
            )

    def test_trace_reproducible(self, tiny_function):
        a = tiny_function.trace(1, 7)
        b = tiny_function.trace(1, 7)
        np.testing.assert_array_equal(a.histogram, b.histogram)
        assert a.cpu_time_s == b.cpu_time_s

    def test_trace_varies_with_seed(self, tiny_function):
        a = tiny_function.trace(1, 7)
        b = tiny_function.trace(1, 8)
        assert not np.array_equal(a.histogram, b.histogram)

    def test_trace_ws_matches_spec(self, tiny_function):
        trace = tiny_function.trace(2, 0)
        assert trace.working_set.size == tiny_function.ws_pages(2)

    def test_trace_accesses_match_spec(self, tiny_function):
        trace = tiny_function.trace(3, 0)
        assert trace.total_accesses == tiny_function.total_accesses(3)

    def test_epoch_count(self, tiny_function):
        assert len(tiny_function.trace(0, 0).epochs) == tiny_function.n_epochs

    def test_store_fraction_propagates(self, tiny_function):
        trace = tiny_function.trace(0, 0)
        assert all(
            e.store_fraction == tiny_function.store_fraction for e in trace.epochs
        )

    def test_epoch_histograms_sum_to_total(self, tiny_function):
        trace = tiny_function.trace(3, 5)
        per_epoch = sum(e.total_accesses for e in trace.epochs)
        assert per_epoch == trace.total_accesses


class TestSuite:
    def test_ten_functions_paper_order(self):
        assert len(SUITE) == 10
        assert [f.name for f in SUITE][:3] == [
            "float_operation",
            "pyaes",
            "json_load_dump",
        ]
        assert SUITE[7].name == "pagerank"

    def test_table1_memory_configs(self):
        by_name = {f.name: f.guest_mb for f in SUITE}
        assert by_name["float_operation"] == 128
        assert by_name["compress"] == 256
        assert by_name["pagerank"] == 1024
        assert by_name["lr_training"] == 1024

    def test_every_function_has_four_inputs(self):
        for f in SUITE:
            assert f.n_inputs == 4

    def test_input_iv_is_longest(self):
        for f in SUITE:
            times = [s.t_dram_s for s in f.inputs]
            assert times[-1] == max(times)

    def test_get_function(self):
        assert get_function("matmul").name == "matmul"
        with pytest.raises(KeyError):
            get_function("nope")

    def test_pagerank_is_most_memory_intensive(self):
        stalls = {f.name: f.inputs[-1].stall_share for f in SUITE}
        assert stalls["pagerank"] == max(stalls.values())

    def test_compress_is_least_memory_intensive(self):
        stalls = {f.name: f.inputs[-1].stall_share for f in SUITE}
        assert stalls["compress"] == min(stalls.values())

    def test_table1_rows(self):
        rows = table1()
        assert len(rows) == 10
        assert rows[0].inputs == ("N=10", "N=100", "N=1000", "N=10000")
        assert all(len(r.inputs) == 4 for r in rows)

    def test_suite_traces_build(self):
        # Smallest input of each function builds quickly and correctly.
        for f in SUITE:
            trace = f.trace(0, 0)
            assert trace.n_pages == f.n_pages
            assert trace.total_accesses > 0
