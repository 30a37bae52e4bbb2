"""Declarative function model and trace synthesis.

A :class:`FunctionModel` captures everything the simulator needs to know
about one serverless function:

* guest memory size (the smallest 128 MB multiple that runs it, Table I);
* four inputs (the paper's Roman-numeral inputs I–IV), each with a warm
  all-DRAM execution time, a memory-stall share, a working-set fraction and
  an execution-time variability;
* the shape of its access histogram (bands over the working set);
* allocation non-determinism knobs (jitter/scatter, Section III-B).

:meth:`FunctionModel.trace` turns that into an
:class:`~repro.trace.events.InvocationTrace` for a given invocation seed.
The same (function, input, seed) triple always yields the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import config, domains, rng as rng_mod
from ..errors import AddressSpaceError, ConfigError
from ..obs import profile as profile_mod
from ..trace import cache as trace_cache
from ..trace.allocator import GuestAllocator
from ..trace.events import InvocationTrace, int32_column
from ..trace.synth import Band, banded_histogram

__all__ = ["InputSpec", "FunctionModel", "INPUT_LABELS"]

INPUT_LABELS = ("I", "II", "III", "IV")
"""The paper's Roman-numeral input identifiers, smallest to largest."""


@dataclass(frozen=True)
class InputSpec:
    """One input of a function (one column of Table I).

    Attributes
    ----------
    label:
        Human-readable input description from Table I (e.g. ``"N=10000"``).
    t_dram_s:
        Warm execution time with all memory in the fast tier.
    stall_share:
        Fraction of ``t_dram_s`` stalled on LLC-miss DRAM loads — the
        ``perf`` memory-intensiveness metric of Section VI-C1.  Together
        with ``t_dram_s`` it fixes the total access count.
    ws_fraction:
        Working-set size as a fraction of guest memory.
    variability:
        Lognormal sigma of run-to-run execution-time noise (the paper's
        short-running and image_processing volatility).
    """

    label: str
    t_dram_s: float = domains.real(gt=0.0)
    stall_share: float = domains.real(gt=0.0, lt=1.0)
    ws_fraction: float = domains.real(gt=0.0, le=1.0)
    variability: float = domains.real(0.02, ge=0.0)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)


@dataclass(frozen=True)
class FunctionModel:
    """A Table I function: memory configuration, inputs and access shape."""

    name: str
    description: str
    guest_mb: int = domains.count(least=1)
    input_type: str
    inputs: tuple[InputSpec, ...]
    bands: tuple[Band, ...]
    random_fraction: float = domains.probability(0.0)
    store_fraction: float = domains.probability(0.2)
    n_epochs: int = domains.count(6, least=1)
    scatter_fraction: float = domains.real(0.01, ge=0.0, lt=1.0)
    jitter_pages: int = domains.count(64, least=0)
    base_page_frac: float = domains.real(0.02, ge=0.0, lt=1.0)
    histogram_noise: float = domains.real(0.03, ge=0.0)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)
        if self.guest_mb % config.MEMORY_BUNDLE_MB:
            raise ConfigError(
                f"{self.name}: guest memory must be a positive multiple of "
                f"{config.MEMORY_BUNDLE_MB} MB (Section VI-A)"
            )
        if len(self.inputs) != len(INPUT_LABELS):
            raise ConfigError(f"{self.name}: exactly 4 inputs required (Table I)")
        times = [spec.t_dram_s for spec in self.inputs]
        if times != sorted(times):
            raise ConfigError(
                f"{self.name}: inputs must be ordered by execution time "
                "(input IV is the longest-running invocation, Section V-C)"
            )
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "bands", tuple(self.bands))

    # -- derived geometry ----------------------------------------------------

    @property
    def n_pages(self) -> int:
        """Guest memory size in pages."""
        return self.guest_mb * config.PAGES_PER_MB

    @property
    def n_inputs(self) -> int:
        """Number of catalogued inputs (always 4)."""
        return len(self.inputs)

    def input_spec(self, input_index: int) -> InputSpec:
        """Return the spec for input ``input_index`` (0-based: 0 == I)."""
        if not 0 <= input_index < len(self.inputs):
            raise ConfigError(
                f"{self.name}: input index {input_index} outside 0..{len(self.inputs) - 1}"
            )
        return self.inputs[input_index]

    def ws_pages(self, input_index: int) -> int:
        """Working-set size in pages for an input."""
        spec = self.input_spec(input_index)
        return max(1, round(spec.ws_fraction * self.n_pages))

    def total_accesses(self, input_index: int) -> int:
        """LLC-miss demand loads implied by the input's time and stall share.

        Floored at one access per working-set page: every touched page
        misses at least once (its first touch), so low-intensity inputs
        cannot have a working set larger than their access count.
        """
        spec = self.input_spec(input_index)
        stall = spec.t_dram_s * spec.stall_share
        return max(
            self.ws_pages(input_index),
            round(stall / config.DRAM_LOAD_LATENCY_S),
        )

    def allocator(self) -> GuestAllocator:
        """The guest allocation model for this function."""
        return GuestAllocator(
            self.n_pages,
            base_page=int(self.base_page_frac * self.n_pages),
            jitter_pages=self.jitter_pages,
            scatter_fraction=self.scatter_fraction,
        )

    # -- trace synthesis -----------------------------------------------------

    def trace(
        self,
        input_index: int,
        invocation_seed: int,
        *,
        root_seed: int = config.DEFAULT_SEED,
    ) -> InvocationTrace:
        """Synthesise the access trace of one invocation.

        ``invocation_seed`` distinguishes repeated invocations of the same
        input: the histogram noise, allocation jitter/scatter and execution
        variability all draw from a stream derived from it, reproducing the
        paper's observation that identical inputs still diverge.
        """
        spec = self.input_spec(input_index)
        # Synthesis is deterministic in this exact tuple (every stream
        # below derives from it), so identical invocations across systems
        # — e.g. Figure 9 replaying one seed range through four systems —
        # share one immutable trace object instead of re-synthesising.
        cache = trace_cache.shared_trace_cache()
        cache_key = (self, input_index, invocation_seed, root_seed)
        cached = cache.get(cache_key)
        if cached is not None:
            return cached
        with profile_mod.phase("trace/synth"):
            trace = self._synthesize(spec, input_index, invocation_seed,
                                     root_seed)
        cache.put(cache_key, trace)
        return trace

    def _synthesize(
        self,
        spec: InputSpec,
        input_index: int,
        invocation_seed: int,
        root_seed: int,
    ) -> InvocationTrace:
        rng = rng_mod.stream(root_seed, "invocation", self.name, input_index, invocation_seed)

        ws = self.ws_pages(input_index)
        accesses = self.total_accesses(input_index)
        hist = banded_histogram(
            ws, accesses, self.bands, rng, noise=self.histogram_noise
        )
        pages, counts = self.allocator().remap_histogram(hist, rng)

        # Run-to-run execution variability scales the whole invocation.
        scale = float(rng.lognormal(mean=0.0, sigma=spec.variability)) if spec.variability else 1.0
        cpu_time = spec.t_dram_s * (1.0 - spec.stall_share) * scale

        return self._split_epochs(
            pages,
            counts,
            cpu_time,
            rng,
            label=f"{self.name}/input-{INPUT_LABELS[input_index]}",
        )

    def _split_epochs(
        self,
        pages: np.ndarray,
        counts: np.ndarray,
        cpu_time: float,
        rng: np.random.Generator,
        *,
        label: str,
    ) -> InvocationTrace:
        """Distribute the invocation histogram over time slices.

        Counts are binomially thinned epoch by epoch so the per-epoch
        histograms sum exactly to the invocation histogram.  Epoch weights
        are near-even with mild noise — enough temporal texture for DAMON's
        aggregation windows without imposing artificial phases.

        Each epoch keeps only its nonzero mask and its nonzero counts, so
        the full per-epoch draws are freed as the loop goes.  The counts
        are then joined into the trace's int32 counts column and each
        mask compresses the pages straight into its slice of the int32
        pages column.  No epoch count exceeds its page's invocation
        count, so checking the invocation histogram once covers them all.
        """
        pages = int32_column(pages, "pages", AddressSpaceError)
        counts = int32_column(counts, "counts", ConfigError)
        n = self.n_epochs
        weights = rng.dirichlet(np.full(n, 20.0)) if n > 1 else np.ones(1)
        remaining = counts.copy()
        remaining_weight = 1.0
        masks: list[np.ndarray] = []
        taken: list[np.ndarray] = []
        for e in range(n):
            if e == n - 1:
                take = remaining
            else:
                p = min(1.0, max(0.0, weights[e] / remaining_weight))
                take = rng_mod.binomial(rng, remaining, p)
                remaining_weight -= weights[e]
            nz = take > 0
            masks.append(nz)
            taken.append(take[nz])
            if e < n - 1:
                remaining = remaining - take
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([t.size for t in taken], out=ptr[1:])
        flat_counts = np.concatenate(taken, dtype=np.int32, casting="same_kind")
        del taken
        flat_pages = np.empty_like(flat_counts)
        for nz, lo, hi in zip(masks, ptr[:-1], ptr[1:]):
            np.compress(nz, pages, out=flat_pages[lo:hi])
        return InvocationTrace._from_columns(
            self.n_pages,
            flat_pages,
            flat_counts,
            ptr,
            cpu_time_s=[cpu_time * float(w) for w in weights],
            random_fraction=[self.random_fraction] * n,
            store_fraction=[self.store_fraction] * n,
            label=label,
        )
