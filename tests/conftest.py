"""Shared fixtures: small, fast function models and trace builders."""

from __future__ import annotations

import builtins

import numpy as np
import pytest

from repro.functions.base import FunctionModel, InputSpec
from repro.obs import profile as obs_profile
from repro.obs import runtime as obs_runtime
from repro.trace.events import AccessEpoch, InvocationTrace
from repro.trace.synth import Band

pytest_plugins = ["pytester"]


@pytest.fixture(autouse=True)
def _no_leaked_observation():
    """Fail any test that leaves an observation or a phase profiler active.

    Both are process-wide switches: a leaked observation makes every later
    test emit spans and metrics into it, and a leaked profiler times every
    later phase.  The guard fails the *leaking* test and switches both off
    so the rest of the session runs unobserved.
    """
    assert obs_runtime.active() is None and obs_profile.active() is None, (
        "an observation or profiler is already active at test start "
        "(leaked by earlier setup?)"
    )
    yield
    leaked = obs_runtime.active() is not None or obs_profile.active() is not None
    obs_runtime.deactivate()
    obs_profile.deactivate()
    assert not leaked, (
        "test leaked an active observation or profiler: use the "
        "observing()/profiling() context managers or deactivate()"
    )


def neumaier_sum(iterable, start=0):
    """``sum()`` as Python 3.12 computes it: floats are added with
    Neumaier compensation, so the result is not the left fold."""
    items = list(iterable)
    if not items or not all(isinstance(x, float) for x in items):
        return _BUILTIN_SUM(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


_BUILTIN_SUM = builtins.sum


@pytest.fixture
def compensated_sum(monkeypatch):
    """Run the test with the builtin ``sum`` summing floats as Python
    3.12 does, whatever the interpreter."""
    monkeypatch.setattr(builtins, "sum", neumaier_sum)


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


def make_trace(
    n_pages: int = 4096,
    pages=(0, 1, 2, 100),
    counts=(50, 40, 30, 10),
    cpu_time_s: float = 0.01,
    n_epochs: int = 1,
    store_fraction: float = 0.0,
    random_fraction: float = 0.0,
) -> InvocationTrace:
    """A small hand-built trace."""
    epochs = tuple(
        AccessEpoch(
            cpu_time_s=cpu_time_s / n_epochs,
            pages=np.asarray(pages, dtype=np.int64),
            counts=np.asarray(counts, dtype=np.int64),
            store_fraction=store_fraction,
            random_fraction=random_fraction,
        )
        for _ in range(n_epochs)
    )
    return InvocationTrace(n_pages=n_pages, epochs=epochs, label="test")


@pytest.fixture
def tiny_function() -> FunctionModel:
    """A fast 128 MB function with a hot head and cold tail."""
    return FunctionModel(
        name="tiny",
        description="test function",
        guest_mb=128,
        input_type="N",
        inputs=(
            InputSpec("small", t_dram_s=0.002, stall_share=0.02,
                      ws_fraction=0.05, variability=0.02),
            InputSpec("mid", t_dram_s=0.005, stall_share=0.04,
                      ws_fraction=0.10, variability=0.02),
            InputSpec("large", t_dram_s=0.010, stall_share=0.06,
                      ws_fraction=0.15, variability=0.02),
            InputSpec("xl", t_dram_s=0.020, stall_share=0.08,
                      ws_fraction=0.20, variability=0.02),
        ),
        bands=(Band(0.10, 0.70), Band(0.90, 0.30)),
        n_epochs=3,
        store_fraction=0.2,
    )


@pytest.fixture
def memory_intensive_function() -> FunctionModel:
    """A fast function whose working set resists offloading."""
    return FunctionModel(
        name="intense",
        description="uniformly hot test function",
        guest_mb=128,
        input_type="N",
        inputs=(
            InputSpec("small", t_dram_s=0.004, stall_share=0.15,
                      ws_fraction=0.30, variability=0.02),
            InputSpec("mid", t_dram_s=0.008, stall_share=0.25,
                      ws_fraction=0.45, variability=0.02),
            InputSpec("large", t_dram_s=0.015, stall_share=0.35,
                      ws_fraction=0.60, variability=0.02),
            InputSpec("xl", t_dram_s=0.030, stall_share=0.45,
                      ws_fraction=0.75, variability=0.02),
        ),
        bands=(Band(0.5, 0.5), Band(0.5, 0.5)),
        n_epochs=3,
        store_fraction=0.05,
    )
