"""Trace-synthesis golden: the exact bits of every synthesised trace.

Every downstream fixture (figures, serve streams, Perfetto exports) is a
function of the synthesised traces, so pinning synthesis directly names
the layer that moved when one of them changes.  ``fixtures/
trace_golden.json`` holds one sha256 per (function, input, seed) over the
trace's ``pages``, ``counts`` and ``epoch_ptr`` columns and its per-epoch
``cpu_time_s`` written as ``float.hex``, for every ``SUITE`` and
``EXTENDED_SUITE`` function, all four inputs and seeds 1 and 2.

To re-record after a deliberate behaviour change, run
``PYTHONPATH=src python tests/test_trace_golden.py`` and write its output
over the fixture.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.functions import EXTENDED_SUITE, SUITE

FIXTURE = Path(__file__).parent / "fixtures" / "trace_golden.json"

FUNCTIONS = {f.name: f for f in SUITE + EXTENDED_SUITE}
INPUTS = (0, 1, 2, 3)
SEEDS = (1, 2)
CASES = [
    (name, input_index, seed)
    for name in sorted(FUNCTIONS)
    for input_index in INPUTS
    for seed in SEEDS
]


def case_key(name: str, input_index: int, seed: int) -> str:
    return f"{name}/{input_index}/{seed}"


def trace_digest(name: str, input_index: int, seed: int) -> str:
    trace = FUNCTIONS[name].trace(input_index, seed)
    h = hashlib.sha256()
    for column in (trace.pages, trace.counts, trace.epoch_ptr):
        h.update(column.dtype.str.encode())
        h.update(column.tobytes())
    h.update(",".join(float(e.cpu_time_s).hex() for e in trace.epochs).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("name,input_index,seed", CASES)
def test_trace_matches_golden(name, input_index, seed, golden):
    assert trace_digest(name, input_index, seed) == golden[
        case_key(name, input_index, seed)
    ]


if __name__ == "__main__":
    json.dump(
        {case_key(*case): trace_digest(*case) for case in CASES},
        sys.stdout,
        indent=2,
        sort_keys=True,
    )
    sys.stdout.write("\n")
