"""Exhaustive check of the exact binomial thinning kernel on real draws.

Every ``SUITE`` and ``EXTENDED_SUITE`` function, all four inputs and 20
invocation seeds: each per-epoch thinning draw ``FunctionModel`` makes while
synthesising a trace is replayed through NumPy's ``rng.binomial`` from the
same generator state, and ``repro.rng.binomial`` must return the same
counts and leave the same generator state.  Slow (~1 min); the tier-1 suite
keeps the hypothesis property in ``tests/test_rng.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.functions import EXTENDED_SUITE, SUITE
from repro.rng import binomial
from repro.trace import cache as trace_cache

SEEDS = range(20)


@pytest.mark.slow
def test_thinning_matches_numpy_on_every_trace(monkeypatch):
    checked = []

    def replayed(rng, counts, p):
        replay = np.random.Generator(type(rng.bit_generator)())
        replay.bit_generator.state = rng.bit_generator.state
        expect = replay.binomial(counts, p)
        got = binomial(rng, counts, p)
        assert got.dtype == expect.dtype
        np.testing.assert_array_equal(got, expect)
        assert rng.bit_generator.state == replay.bit_generator.state
        checked.append(counts.size)
        return got

    monkeypatch.setattr(rng_mod, "binomial", replayed)
    trace_cache.shared_trace_cache().clear()
    functions = SUITE + EXTENDED_SUITE
    for function in functions:
        for input_index in range(4):
            for seed in SEEDS:
                function.trace(input_index, seed)
    trace_cache.shared_trace_cache().clear()
    assert len(checked) == sum(4 * len(SEEDS) * (f.n_epochs - 1) for f in functions)
