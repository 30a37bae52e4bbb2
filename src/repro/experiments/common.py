"""Shared experiment plumbing.

Preparing a TOSS system (profiling to convergence + analysis) is the
expensive step every cost experiment shares, so prepared systems are
cached per (function, profiling inputs, threshold).  The cache key uses
names and plain tuples so repeated ``run()`` calls inside one benchmark
session reuse work.
"""

from __future__ import annotations

from functools import lru_cache

from ..baselines import DramBaseline, ReapSystem, TossSystem, VanillaLazy
from ..functions import SUITE, get_function

__all__ = [
    "ALL_INPUTS",
    "INPUT_IV_ONLY",
    "toss_cached",
    "dram_cached",
    "reap_cached",
    "vanilla_cached",
    "warm_time_cached",
    "suite_names",
]

ALL_INPUTS: tuple[int, ...] = (0, 1, 2, 3)
"""Profiling-input mix for the "all inputs" snapshot (Section VI-A)."""

INPUT_IV_ONLY: tuple[int, ...] = (3,)
"""Profiling-input mix for the "input IV only" snapshot."""

CONVERGENCE_WINDOW = 8
"""Experiment-scale convergence window.  The paper uses 100; the unified
pattern's signature is identical once stable, so a shorter window only
shortens the (deterministic) profiling phase, not the resulting snapshot."""


def suite_names() -> list[str]:
    """All Table I function names in paper order."""
    return [f.name for f in SUITE]


@lru_cache(maxsize=None)
def toss_cached(
    name: str, profiling_inputs: tuple[int, ...] = ALL_INPUTS
) -> TossSystem:
    """A prepared (tiered) TOSS system for one function."""
    return TossSystem(
        get_function(name),
        profiling_inputs=profiling_inputs,
        convergence_window=CONVERGENCE_WINDOW,
    )


@lru_cache(maxsize=None)
def dram_cached(name: str) -> DramBaseline:
    """A warm-DRAM reference system for one function."""
    return DramBaseline(get_function(name))


@lru_cache(maxsize=None)
def reap_cached(name: str, snapshot_input: int) -> ReapSystem:
    """A REAP system recorded with the given snapshot input."""
    return ReapSystem(get_function(name), snapshot_input=snapshot_input)


@lru_cache(maxsize=None)
def vanilla_cached(name: str) -> VanillaLazy:
    """A vanilla lazy-restore system for one function."""
    return VanillaLazy(get_function(name))


@lru_cache(maxsize=None)
def warm_time_cached(name: str, input_index: int) -> float:
    """Warm all-DRAM execution time (the normalisation denominator).

    Averaged over invocations 10000-10004 so high-variability functions
    (image_processing) do not skew every normalised figure.
    """
    dram = dram_cached(name)
    times = [dram.invoke(input_index, 10_000 + i).exec_time_s for i in range(5)]
    return sum(times) / len(times)
