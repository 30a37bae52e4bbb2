"""Tests for deterministic RNG stream derivation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_mod
from repro.rng import binomial, derive_seed, spawn, stream


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_key_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_key_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_no_concatenation_collision(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_64_bit_range(self):
        s = derive_seed(123, "x")
        assert 0 <= s < 2**64


class TestStream:
    def test_reproducible(self):
        a = stream(7, "alpha").integers(0, 1000, size=10)
        b = stream(7, "alpha").integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_independent_streams_differ(self):
        a = stream(7, "alpha").integers(0, 2**31, size=16)
        b = stream(7, "beta").integers(0, 2**31, size=16)
        assert not np.array_equal(a, b)


class TestSpawn:
    def test_spawn_deterministic_given_parent_state(self):
        parent1 = stream(9, "p")
        parent2 = stream(9, "p")
        a = spawn(parent1, "child").integers(0, 1000, size=8)
        b = spawn(parent2, "child").integers(0, 1000, size=8)
        np.testing.assert_array_equal(a, b)

    def test_spawn_advances_parent(self):
        parent = stream(9, "p")
        before = parent.bit_generator.state["state"]["state"]
        spawn(parent, "c")
        after = parent.bit_generator.state["state"]["state"]
        assert before != after


# -- exact binomial thinning ---------------------------------------------------

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def next_double_is(rng: np.random.Generator, u: float) -> None:
    """Set a PCG64 generator so that its next ``random()`` returns ``u``.

    ``u`` is a multiple of 2**-53 in [0, 1).  PCG64 steps its 128-bit
    state (``state * multiplier + inc``) and outputs the XSL-RR of the new
    state; with the high word's top six bits clear the rotation is zero,
    so the output is ``hi ^ lo`` and ``random()`` its top 53 bits.
    """
    out = int(u * 2**53) << 11
    hi = 0x0123456789ABCDEF
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    stepped = (hi << 64) | (hi ^ out)
    state["state"]["state"] = (
        (stepped - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    )
    rng.bit_generator.state = state


def thinning_counts(kind: str, size: int, seed: int) -> np.ndarray:
    rs = np.random.default_rng(seed)
    if kind == "small":
        return rs.integers(0, 8, size)
    if kind == "poisson":
        return rs.poisson(rs.uniform(0.5, 40.0), size)
    if kind == "sparse":
        return (rs.random(size) < 0.3) * rs.integers(1, 12, size)
    if kind == "ones":
        return rs.integers(0, 2, size)
    # "btpe": small counts with a few NumPy draws by BTPE at any p.
    counts = rs.integers(0, 6, size)
    counts[rs.integers(0, size, 3)] = rs.integers(10_000, 100_000, 3)
    return counts


def assert_same_draws(counts, p, seed, first_u=None):
    expect_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    if first_u is not None:
        next_double_is(expect_rng, first_u)
        next_double_is(got_rng, first_u)
    expect = expect_rng.binomial(counts, p)
    got = binomial(got_rng, counts, p)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    np.testing.assert_array_equal(got, expect)
    assert got_rng.bit_generator.state == expect_rng.bit_generator.state


class TestBinomial:
    """``binomial`` is ``rng.binomial`` bit for bit, final state included."""

    def test_crafted_next_double(self):
        rng = np.random.default_rng(3)
        next_double_is(rng, 1 - 2**-53)
        assert rng.random() == 1 - 2**-53

    @settings(deadline=None)
    @given(
        kind=st.sampled_from(["small", "poisson", "sparse", "ones", "btpe"]),
        size=st.integers(2_048, 20_000) | st.integers(1, 2_047),
        p=st.sampled_from([0.0, 1e-9, 0.5, 0.7, 1 - 1e-12, 1.0]) | st.floats(0, 1),
        dtype=st.sampled_from([np.int32, np.int64]),
        seed=st.integers(0, 2**32 - 1),
        first_u=st.none() | st.sampled_from([0.0, 0.5, 1 - 2**-53]),
    )
    def test_matches_numpy(self, kind, size, p, dtype, seed, first_u):
        counts = thinning_counts(kind, size, seed).astype(dtype)
        assert_same_draws(counts, p, seed, first_u)

    def test_table_reads_most_draws(self, monkeypatch):
        built = []
        init = rng_mod._InversionTable.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(rng_mod._InversionTable, "__init__", spy)
        assert_same_draws(thinning_counts("small", 10_000, 1), 0.3, 1)
        assert len(built) == 1

    @pytest.mark.parametrize("p", [0.35, 0.65])
    def test_restart_falls_back(self, monkeypatch, p):
        # At U = 1 - 2**-53 NumPy's loop for n = 3 runs past its bound
        # (the float CDF sums to just under U, for p and for 1 - p) and
        # restarts on a second uniform; the table hands such a chunk back
        # to rng.binomial.
        loops = []
        loop = rng_mod._InversionTable._loop

        def spy(self, n, u):
            loops.append(loop(self, n, u))
            return loops[-1]

        monkeypatch.setattr(rng_mod._InversionTable, "_loop", spy)
        counts = thinning_counts("small", 10_000, 2)
        counts[0] = 3
        assert_same_draws(counts, p, 2, first_u=1 - 2**-53)
        assert None in loops

    @pytest.mark.parametrize("p,n", [(0.3, 5), (0.7, 5), (0.7, 1), (0.45, 1)])
    def test_draw_on_a_threshold_runs_the_loop(self, monkeypatch, p, n):
        loops = []
        loop = rng_mod._InversionTable._loop

        def spy(self, n, u):
            loops.append((n, u))
            return loop(self, n, u)

        monkeypatch.setattr(rng_mod._InversionTable, "_loop", spy)
        counts = thinning_counts("small", 10_000, 4)
        counts[0] = n
        # NumPy's P(X = 0) for count n, inverting on min(p, 1 - p), rounded
        # to the 2**-53 grid (exact for n = 1, where it is at least 0.5).
        pp = min(p, 1.0 - p)
        qn = math.exp(n * math.log(1.0 - pp))
        u = round(qn * 2**53) / 2**53
        assert_same_draws(counts, p, 4, first_u=u)
        assert (n, u) in loops

    def test_first_mass_is_exp_of_log1p(self):
        # For n = 31, p = 1e-9, exp(n * log1p(-p)) lies 8 ulps below
        # exp(n * log(1 - p)); NumPy's P(X = 0) is the first, so a uniform
        # between the two draws X = 1.
        n, p = 31, 1e-9
        by_log1p = math.exp(n * math.log1p(-p))
        by_log = math.exp(n * math.log(1.0 - p))
        u = (by_log1p + by_log) / 2
        assert by_log1p < u < by_log
        rng = np.random.default_rng(0)
        next_double_is(rng, u)
        assert rng.binomial(n, p) == 1
        counts = thinning_counts("small", 10_000, 5)
        counts[0] = n
        assert_same_draws(counts, p, 5, first_u=u)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_rejects_what_numpy_rejects(self, bad):
        with pytest.raises(ValueError):
            binomial(np.random.default_rng(0), np.ones(4096, dtype=np.int64), bad)
        with pytest.raises(ValueError):
            binomial(np.random.default_rng(0), np.full(4096, -1), 0.5)
