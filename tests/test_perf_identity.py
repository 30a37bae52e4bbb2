"""Bit-identity tests for the optimised hot paths.

The vectorised DAMON profiler and the flattened, memoised contention
solver replaced loop-heavy implementations whose exact floating-point
results the golden fixtures (Figures 7-9, the Perfetto trace) depend on.
These tests pin the *pre-change* implementations as references inside
the test file and assert the production code reproduces their output
bit for bit on seeded inputs — not approximately, exactly.  The N-tier
placement search is checked against brute force over every bin
assignment, scored on the bin table: on profiled and drawn guests its
cost must equal the minimum bit for bit (it feeds the TCO frontier
fixture), and every result must replay to its own slowdown and cost.

Hypothesis properties additionally check DAMON's region adaptation
against the reference on drawn region values, the solver memo
(answering a solve from the cache must never change
``contended_times``), and the placement search on drawn guests and
tier chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import BinTable
from repro.core.cost import normalized_cost_tiers
from repro.core.tiering import search_tier_placement
from repro.errors import ProfilingError
from repro.experiments import tco_frontier
from repro.experiments.common import toss_cached
from repro.memsim.bandwidth import (
    DAMPING,
    MAX_ITERATIONS,
    RESOURCES,
    TOLERANCE,
    ContentionModel,
    TierDemand,
)
from repro.memsim.compressed import compressed_memory_system
from repro.memsim.presets import CXL_DDR4_SPEC, NVME_AS_MEMORY_SPEC
from repro.memsim.storage import OPTANE_SSD_SPEC
from repro.memsim.tiers import (
    DEFAULT_MEMORY_SYSTEM,
    DRAM_SPEC,
    PMEM_SPEC,
    MemorySystem,
    Tier,
    TierSpec,
)
from repro.profiling.damon import DamonConfig, DamonProfiler, DamonSnapshot
from repro.regions import Region
from repro.trace.events import AccessEpoch, InvocationTrace
from repro.sim.timing import normalized_slowdown
from repro.vm.microvm import EpochRecord, MicroVM

from test_core_analysis import profiled_pattern

# -- pinned pre-change implementations ----------------------------------------


class ReferenceDamonProfiler(DamonProfiler):
    """The profiler as it was before vectorisation (pinned verbatim)."""

    def profile(self, epochs) -> DamonSnapshot:
        if not epochs:
            raise ProfilingError("cannot profile an empty invocation")
        total = np.zeros(self.n_pages, dtype=np.float64)
        total_samples = 0
        for epoch in epochs:
            values, samples = self._aggregate(epoch)
            for i in range(self.n_regions):
                s, e = int(self._bounds[i]), int(self._bounds[i + 1])
                total[s:e] += values[i]
            total_samples += samples
            self._adapt(values, samples)
        regions = []
        for i in range(self.n_regions):
            s, e = int(self._bounds[i]), int(self._bounds[i + 1])
            regions.append(Region(s, e - s, float(total[s:e].mean())))
        return DamonSnapshot(
            n_pages=self.n_pages,
            bounds=np.array([0] + [r.end_page for r in regions]),
            means=np.array([r.value for r in regions]),
            samples=total_samples,
        )

    def _aggregate(self, epoch: EpochRecord) -> tuple[np.ndarray, int]:
        duration = max(epoch.duration_s, self.cfg.sampling_interval_s)
        samples = max(1, int(round(duration / self.cfg.sampling_interval_s)))
        sizes = np.diff(self._bounds).astype(np.float64)
        if epoch.pages.size:
            rates = epoch.counts * self.cfg.access_bit_scale / duration
            p_page = -np.expm1(-rates * self.cfg.sampling_interval_s)
            idx = np.searchsorted(self._bounds, epoch.pages, side="right") - 1
            p_sum = np.bincount(idx, weights=p_page, minlength=self.n_regions)
        else:
            p_sum = np.zeros(self.n_regions)
        p_region = np.clip(p_sum / sizes, 0.0, 1.0)
        values = self.rng.binomial(samples, p_region).astype(np.float64)
        return values, samples

    def _adapt(self, values: np.ndarray, samples: int) -> None:
        bounds = self._bounds
        keep = [0]
        for i in range(1, len(bounds) - 1):
            pair_scale = max(values[i], values[i - 1])
            threshold = max(1.0, self.cfg.merge_threshold * pair_scale)
            if abs(values[i] - values[i - 1]) > threshold:
                keep.append(i)
            else:
                left_pages = bounds[i] - bounds[keep[-1]]
                right_pages = bounds[i + 1] - bounds[i]
                values[i] = (
                    values[i - 1] * left_pages + values[i] * right_pages
                ) / (left_pages + right_pages)
        keep.append(len(bounds) - 1)
        bounds = bounds[np.asarray(keep, dtype=np.int64)]

        new_bounds = [int(bounds[0])]
        budget = self.cfg.max_nr_regions - (len(bounds) - 1)
        for i in range(len(bounds) - 1):
            start, end = int(bounds[i]), int(bounds[i + 1])
            size = end - start
            if budget > 0 and size >= 2 * self.cfg.min_region_pages:
                lo = start + self.cfg.min_region_pages
                hi = end - self.cfg.min_region_pages
                cut = int(self.rng.integers(lo, hi + 1)) if hi >= lo else None
                if cut is not None and start < cut < end:
                    new_bounds.append(cut)
                    budget -= 1
            new_bounds.append(end)
        self._bounds = np.unique(np.asarray(new_bounds, dtype=np.int64))


class ReferenceContentionModel(ContentionModel):
    """The solver as it was before flattening/memoisation (pinned)."""

    def _solve(self, demands):
        import math

        times = [max(d.nominal_time_s, 1e-12) for d in demands]
        inflation = {r: 1.0 for r in RESOURCES}
        works = [d._stalls_and_work() for d in demands]
        for _ in range(MAX_ITERATIONS):
            rates = {r: 0.0 for r in RESOURCES}
            for work, t in zip(works, times):
                for r in RESOURCES:
                    rates[r] += work[r][1] / t
            new_inflation = {
                r: self._inflation(rates[r] / self._capacity[r])
                for r in RESOURCES
            }
            inflation = {
                r: math.exp(
                    (1.0 - DAMPING) * math.log(inflation[r])
                    + DAMPING * math.log(new_inflation[r])
                )
                for r in RESOURCES
            }
            new_times = []
            for d, work in zip(demands, works):
                t = d.cpu_time_s
                for r in RESOURCES:
                    t += work[r][0] * inflation[r]
                new_times.append(max(t, 1e-12))
            delta = max(
                abs(a - b) / max(a, 1e-12) for a, b in zip(times, new_times)
            )
            times = new_times
            if delta <= TOLERANCE:
                break
        return times, inflation


# -- input generators ----------------------------------------------------------


def synthetic_epochs(
    seed: int, n_pages: int, n_epochs: int, *, density: float = 0.1
) -> tuple[EpochRecord, ...]:
    """Seeded epochs with sparse, sorted page sets (some possibly empty)."""
    rng = np.random.default_rng(seed)
    epochs = []
    for e in range(n_epochs):
        if e == n_epochs - 1 and n_epochs > 2:
            # One fully idle epoch exercises the empty-pages branch.
            pages = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
        else:
            n_hot = max(1, int(n_pages * density))
            pages = np.sort(
                rng.choice(n_pages, size=n_hot, replace=False)
            ).astype(np.int64)
            counts = rng.integers(1, 500, size=pages.size).astype(np.int64)
        epochs.append(
            EpochRecord(
                duration_s=float(rng.uniform(0.005, 0.2)),
                pages=pages,
                counts=counts,
            )
        )
    return tuple(epochs)


def random_demand(rng: np.random.Generator) -> TierDemand:
    v = rng.uniform(0.01, 0.5, size=11)
    return TierDemand(
        cpu_time_s=v[0],
        fast_stall_s=v[1],
        fast_bytes=v[2] * 1e9,
        slow_read_stall_s=v[3],
        slow_read_ops=v[4] * 1e6,
        slow_write_stall_s=v[5],
        slow_write_ops=v[6] * 1e6,
        ssd_stall_s=v[7],
        ssd_ops=v[8] * 1e5,
        uffd_stall_s=v[9],
        uffd_ops=v[10] * 1e5,
    )


def model() -> ContentionModel:
    return ContentionModel(DEFAULT_MEMORY_SYSTEM, OPTANE_SSD_SPEC)


# -- DAMON ---------------------------------------------------------------------


class TestDamonBitIdentity:
    N_PAGES = 32768

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_snapshot_matches_reference_exactly(self, seed):
        epochs = synthetic_epochs(seed, self.N_PAGES, n_epochs=4)
        new = DamonProfiler(
            self.N_PAGES, rng=np.random.default_rng(seed)
        )
        ref = ReferenceDamonProfiler(
            self.N_PAGES, rng=np.random.default_rng(seed)
        )
        snap_new = new.profile(epochs)
        snap_ref = ref.profile(epochs)
        # Exact dataclass equality: every region boundary and every
        # float64 value, no tolerance.
        assert snap_new == snap_ref
        assert np.array_equal(new._bounds, ref._bounds)
        assert np.array_equal(
            snap_new.page_values(), snap_ref.page_values()
        )

    def test_sequential_profiles_keep_matching(self):
        """Region state evolves across invocations; it must not drift."""
        new = DamonProfiler(self.N_PAGES, rng=np.random.default_rng(11))
        ref = ReferenceDamonProfiler(
            self.N_PAGES, rng=np.random.default_rng(11)
        )
        for pass_seed in range(4):
            epochs = synthetic_epochs(100 + pass_seed, self.N_PAGES, 3)
            assert new.profile(epochs) == ref.profile(epochs)

    def test_dense_epochs_match(self):
        """Every page touched: no empty regions, full reduceat segments."""
        rng = np.random.default_rng(5)
        epochs = (
            EpochRecord(
                duration_s=0.05,
                pages=np.arange(self.N_PAGES, dtype=np.int64),
                counts=rng.integers(
                    1, 100, size=self.N_PAGES
                ).astype(np.int64),
            ),
        )
        new = DamonProfiler(self.N_PAGES, rng=np.random.default_rng(5))
        ref = ReferenceDamonProfiler(
            self.N_PAGES, rng=np.random.default_rng(5)
        )
        assert new.profile(epochs) == ref.profile(epochs)

    def test_small_guest_matches(self):
        cfg = DamonConfig(min_region_pages=1, min_nr_regions=4)
        epochs = synthetic_epochs(9, 64, n_epochs=2, density=0.5)
        new = DamonProfiler(64, cfg, rng=np.random.default_rng(9))
        ref = ReferenceDamonProfiler(64, cfg, rng=np.random.default_rng(9))
        assert new.profile(epochs) == ref.profile(epochs)

    def test_array_bounded_integers_equal_scalar_calls(self):
        """The split pass draws every cut with one array-bounded
        ``integers`` call; this holds only while NumPy draws the same
        values, and leaves the same generator state, as one scalar call
        per bound pair in order."""
        rng = np.random.default_rng(17)
        lo = rng.integers(0, 2**40, size=300)
        width = rng.choice([0, 1, 5, 2**20, 2**31, 2**33], size=300)
        hi = lo + width
        scalar = np.random.default_rng(4)
        vector = np.random.default_rng(4)
        drawn = [
            int(scalar.integers(a, b + 1)) for a, b in zip(lo.tolist(), hi.tolist())
        ]
        assert vector.integers(lo, hi + 1).tolist() == drawn
        assert vector.bit_generator.state == scalar.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property_adapt_matches_reference(self, data):
        """Hypothesis: drawn region values (zero runs, equal runs, merge
        chains, large counts) adapt to the reference's boundaries and
        leave the generator in the reference's state, call after call."""
        n_regions = data.draw(st.integers(1, 150), label="n_regions")
        sizes = data.draw(
            st.lists(st.integers(1, 40), min_size=n_regions, max_size=n_regions),
            label="sizes",
        )
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        n_pages = int(bounds[-1])
        cfg = DamonConfig(
            min_region_pages=data.draw(st.integers(1, 8), label="min_pages"),
            min_nr_regions=1,
            max_nr_regions=data.draw(st.integers(1, 200), label="cap"),
            merge_threshold=data.draw(
                st.sampled_from([0.0, 0.1, 0.5, 3.0]), label="threshold"
            ),
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        new = DamonProfiler(n_pages, cfg, rng=np.random.default_rng(seed))
        ref = ReferenceDamonProfiler(n_pages, cfg, rng=np.random.default_rng(seed))
        new._bounds = bounds.copy()
        ref._bounds = bounds.copy()
        # Region values walk in small steps, so neighbours are often
        # within the merge threshold and chains carry a running mean;
        # a walk through zero gives zero runs, a scale of 1e9 large counts.
        scale = data.draw(st.sampled_from([1, 10**9]), label="scale")
        for _ in range(data.draw(st.integers(1, 4), label="calls")):
            n_runs = data.draw(st.integers(1, 60), label="n_runs")
            steps = data.draw(
                st.lists(st.integers(-3, 3), min_size=n_runs, max_size=n_runs),
                label="steps",
            )
            lengths = data.draw(
                st.lists(
                    st.one_of(st.just(1), st.integers(1, 30)),
                    min_size=n_runs,
                    max_size=n_runs,
                ),
                label="run lengths",
            )
            start = data.draw(st.integers(0, 40), label="start")
            walk = np.abs(start + np.cumsum(steps)) * scale
            values = np.repeat(walk.astype(np.float64), lengths)
            values = np.resize(values, new.n_regions)
            new._adapt(values.copy(), 1)
            ref._adapt(values.copy(), 1)
            assert new._bounds.dtype == np.int64
            assert np.array_equal(new._bounds, ref._bounds)
            assert new.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_page_values_expands_regions(self):
        snap = DamonSnapshot(
            n_pages=40,
            bounds=np.array([0, 10, 32, 40]),
            means=np.array([2.0, 0.0, 5.5]),
            samples=3,
        )
        dense = np.zeros(40)
        dense[:10] = 2.0
        dense[32:] = 5.5
        assert np.array_equal(snap.page_values(), dense)
        assert snap.regions == (
            Region(0, 10, 2.0), Region(10, 22, 0.0), Region(32, 8, 5.5)
        )
        assert snap.observed_pages == 18

    @pytest.mark.parametrize(
        "bounds, means",
        [
            ([8, 12, 40], [1.0, 0.0]),  # gap at the front
            ([0, 12, 30], [1.0, 0.0]),  # stops short of the guest
            ([0, 12, 12, 40], [1.0, 0.0, 2.0]),  # empty region
            ([0, 40], [1.0, 2.0]),  # one value too many
        ],
    )
    def test_snapshot_must_tile_the_guest(self, bounds, means):
        with pytest.raises(ProfilingError):
            DamonSnapshot(
                n_pages=40,
                bounds=np.array(bounds),
                means=np.array(means),
                samples=1,
            )

    def test_snapshot_arrays_are_read_only(self):
        snap = DamonProfiler(64).profile(synthetic_epochs(3, 64, n_epochs=2))
        with pytest.raises(ValueError):
            snap.means[0] = 1.0
        with pytest.raises(ValueError):
            snap.bounds[0] = 1


# -- N-tier placement search ----------------------------------------------------

DRAM_CXL_NVME = MemorySystem(
    fast=DRAM_SPEC, middle=(CXL_DDR4_SPEC,), slow=NVME_AS_MEMORY_SPEC
)
DRAM_PMEM_NVME = MemorySystem(
    fast=DRAM_SPEC, middle=(PMEM_SPEC,), slow=NVME_AS_MEMORY_SPEC
)
CHAINS = {
    "dram_cxl_nvme": DRAM_CXL_NVME,
    "dram_pmem_nvme": DRAM_PMEM_NVME,
    "dram_lz4_pmem": compressed_memory_system(),
}


def brute_force_scores(pattern, trace, memory):
    """Slowdown and Equation-1 cost of every bin-to-tier assignment.

    Row ``i`` is the ``i``-th assignment of ``itertools.product`` over
    chain positions, one per analyzer bin; pages outside the bins stay
    where the search puts them (zero-accessed regions on the slow tier).
    Every assignment is timed in one batch on the bin table, whose
    accounting is the execute engine's, and its price terms fold left as
    :func:`~repro.core.cost.normalized_cost_tiers` adds them, so every
    cost carries the bits a replay of that placement gives.
    """
    table = BinTable(pattern, trace)
    ids = np.array(memory.tier_ids)
    n_bins = table.n_bins
    assign = np.array(
        list(itertools.product(range(ids.size), repeat=n_bins)), dtype=np.intp
    ).reshape(-1, n_bins)
    rows = table.rows(ids[assign])
    all_fast = np.full_like(table.base, int(Tier.FAST))
    time = np.array(
        [r.time_s for r in table.score(memory, np.vstack((all_fast, rows)))]
    )
    slowdown = np.maximum(1.0, time[1:] / time[0])
    position = np.empty(ids.size, dtype=np.intp)
    position[ids] = np.arange(ids.size)
    pages = np.zeros((len(rows), ids.size))
    for key, size in enumerate(table.sizes):
        pages[np.arange(len(rows)), position[rows[:, key]]] += size
    price = np.zeros(len(rows))
    for k, spec in enumerate(memory.chain):
        price += pages[:, k] / pattern.n_pages * (
            spec.cost_per_mb / memory.fast.cost_per_mb
        )
    return table.bins, slowdown, slowdown * price


def replayed(pattern, trace, memory, result):
    """Slowdown and cost of a search result from executing the trace on
    its placement and on all-fast, each on a fresh resident VM."""
    placed = MicroVM(pattern.n_pages, memory=memory, placement=result.placement)
    all_fast = MicroVM(pattern.n_pages, memory=memory)
    slowdown = normalized_slowdown(
        placed.execute(trace).time_s, all_fast.execute(trace).time_s
    )
    pages = np.bincount(result.placement, minlength=memory.n_tiers)
    fractions = pages[list(memory.tier_ids)] / pattern.n_pages
    return slowdown, normalized_cost_tiers(slowdown, fractions, memory)


def search_against_brute_force(pattern, trace, memory, thresholds):
    """Run the search at each budget and yield its result with the
    brute-force minimum cost within the budget (``None`` when no
    assignment is within it).

    The search's placement must re-score exactly as the brute force and
    a replay of it do, and with no assignment inside the budget every
    bin stays on the fast tier."""
    bins, slowdown, cost = brute_force_scores(pattern, trace, memory)
    ids = list(memory.tier_ids)
    for threshold in thresholds:
        result = search_tier_placement(
            pattern, trace, memory, slowdown_threshold=threshold
        )
        row = 0
        for regions_b in bins:
            tier = int(result.placement[regions_b[0].start_page])
            row = row * len(ids) + ids.index(tier)
        assert result.cost == cost[row]
        assert result.slowdown == slowdown[row]
        assert replayed(pattern, trace, memory, result) == (
            result.slowdown,
            result.cost,
        )
        within = np.ones(len(cost), dtype=bool)
        if threshold is not None:
            within = slowdown - 1.0 <= threshold
        if not within.any():
            assert row == 0
            yield threshold, result, None
        else:
            yield threshold, result, float(cost[within].min())


class TestTierSearchBitIdentity:
    """The search's placement is the exact optimum over all 3**10 bin
    assignments of a profiled guest, with or without a budget."""

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_matches_reference_exactly(self, tiny_function, chain, seed):
        memory = CHAINS[chain]
        pattern = profiled_pattern(tiny_function, seed=seed)
        trace = tiny_function.trace(seed % tiny_function.n_inputs, 100 + seed)
        for threshold, result, best in search_against_brute_force(
            pattern, trace, memory, (None, 0.01, 0.3)
        ):
            assert result.cost == best
            assert threshold is None or result.slowdown - 1.0 <= threshold


class TestTierSearchReplays:
    @pytest.mark.parametrize("name", ["float_operation", "pyaes"])
    def test_suite_searches_replay_bit_for_bit(self, name):
        """On the TCO frontier's guests, chains and budgets (and
        unbudgeted), the search reports the slowdown and cost that
        executing the trace on its placement gives, bit for bit."""
        function = toss_cached(name).controller.function
        pattern = toss_cached(name).controller.pattern
        trace = function.trace(function.n_inputs - 1, tco_frontier.TRACE_SEED)
        for _, memory in tco_frontier.default_configs():
            for threshold in (None, 0.05, 0.15, 0.30):
                result = search_tier_placement(
                    pattern, trace, memory, slowdown_threshold=threshold
                )
                assert replayed(pattern, trace, memory, result) == (
                    result.slowdown,
                    result.cost,
                )


@dataclass(frozen=True)
class DrawnPattern:
    """A pattern whose regions are given (the search reads nothing else)."""

    n_pages: int
    drawn: tuple[Region, ...]

    def regions(self, **_) -> list[Region]:
        return list(self.drawn)


@st.composite
def drawn_chains(draw) -> MemorySystem:
    """2-4 tiers below DRAM, each no faster and no pricier than above."""
    specs = [DRAM_SPEC]
    for i in range(draw(st.integers(1, 3))):
        above = specs[-1]
        specs.append(
            TierSpec(
                name=f"tier{i}",
                load_latency_s=above.load_latency_s * draw(st.floats(1.0, 20.0)),
                store_latency_s=above.store_latency_s * draw(st.floats(0.5, 20.0)),
                bandwidth_bps=above.bandwidth_bps,
                access_bytes=above.access_bytes,
                cost_per_mb=above.cost_per_mb * draw(st.floats(0.0, 1.0)),
                random_penalty=draw(st.floats(1.0, 4.0)),
            )
        )
    return MemorySystem(fast=specs[0], middle=tuple(specs[1:-1]), slow=specs[-1])


@st.composite
def drawn_guests(draw) -> tuple[DrawnPattern, InvocationTrace]:
    """Up to 8 one-to-three-page live regions (so at most 8 bins) between
    zero-accessed gaps, and a 1-3 epoch trace that may touch any page."""
    regions: list[Region] = []
    start = live = 0
    for _ in range(draw(st.integers(1, 8))):
        gap = draw(st.integers(0, 3))
        if gap:
            regions.append(Region(start, gap, 0.0))
            start += gap
        size = draw(st.integers(1, 3))
        if live + size > 8:
            break
        regions.append(Region(start, size, draw(st.floats(1.0, 1e4))))
        start += size
        live += size
    n_pages = start
    epochs = []
    for _ in range(draw(st.integers(1, 3))):
        pages = sorted(
            draw(st.sets(st.integers(0, n_pages - 1), max_size=n_pages))
        )
        counts = draw(
            st.lists(st.integers(1, 10_000), min_size=len(pages), max_size=len(pages))
        )
        epochs.append(
            AccessEpoch(
                cpu_time_s=draw(st.floats(1e-6, 1e-3)),
                pages=np.array(pages, dtype=np.int64),
                counts=np.array(counts, dtype=np.int64),
                random_fraction=draw(st.floats(0.0, 1.0)),
                store_fraction=draw(st.floats(0.0, 1.0)),
            )
        )
    return DrawnPattern(n_pages, tuple(regions)), InvocationTrace(
        n_pages=n_pages, epochs=tuple(epochs)
    )


class TestTierSearchExact:
    @given(
        guest=drawn_guests(),
        memory=drawn_chains(),
        threshold=st.none() | st.sampled_from([0.0, 0.01, 0.05, 0.3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, guest, memory, threshold):
        """The search's cost is the brute-force minimum, bit for bit, and
        its slowdown within the budget.  Drawn tiers may be identical, so
        assignments that tie in real arithmetic re-score a few ulps
        apart; the search re-scores every near-tie of its frontier."""
        pattern, trace = guest
        [(_, result, best)] = search_against_brute_force(
            pattern, trace, memory, (threshold,)
        )
        if best is not None:
            assert result.cost == best
            if threshold is not None:
                assert result.slowdown - 1.0 <= threshold


# -- contention solver ---------------------------------------------------------


class TestSolverBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 7, 40])
    def test_matches_reference_exactly(self, seed, batch):
        rng = np.random.default_rng(seed)
        demands = [random_demand(rng) for _ in range(batch)]
        cur = model()
        ref = ReferenceContentionModel(DEFAULT_MEMORY_SYSTEM, OPTANE_SSD_SPEC)
        assert cur.contended_times(demands) == ref._solve(demands)[0]
        assert cur._solve(demands)[1] == ref._solve(demands)[1]

    def test_cache_hit_is_bit_identical_and_counted(self):
        rng = np.random.default_rng(21)
        demands = [random_demand(rng) for _ in range(10)]
        m = model()
        first = m.contended_times(demands)
        assert m.solve_cache_hits == 0
        second = m.contended_times(list(demands))  # a distinct list object
        assert m.solve_cache_hits == 1
        assert second == first  # exactly, not approximately
        # The inflation factors on the same batch are answered cached too.
        m._solve(demands)
        assert m.solve_cache_hits == 2

    def test_cached_results_cannot_be_corrupted(self):
        rng = np.random.default_rng(22)
        demands = [random_demand(rng) for _ in range(5)]
        m = model()
        pristine = model().contended_times(demands)
        first = m.contended_times(demands)
        first[0] = -1.0  # caller scribbles on the returned list
        m._solve(demands)[1]["fast"] = -1.0
        # The cache handed out copies, so the stored result is untouched.
        assert m.contended_times(demands) == pristine
        assert m._solve(demands)[1]["fast"] > 0

    def test_lru_bound_is_enforced(self):
        rng = np.random.default_rng(23)
        m = model()
        m.solve_cache_max = 2
        batches = [[random_demand(rng)] for _ in range(4)]
        for batch in batches:
            m.contended_times(batch)
        assert len(m._solve_cache) == 2
        # The oldest batch was evicted: re-solving it is a miss ...
        m.contended_times(batches[0])
        assert m.solve_cache_hits == 0
        # ... while the newest is still a hit.
        m.contended_times(batches[0])
        assert m.solve_cache_hits == 1

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        batch=st.integers(min_value=1, max_value=8),
        replays=st.integers(min_value=1, max_value=4),
    )
    def test_property_cache_never_changes_results(self, seed, batch, replays):
        """Hypothesis: however a batch is replayed through one model, the
        answer equals a fresh model's uncached solve, bit for bit."""
        rng = np.random.default_rng(seed)
        demands = [random_demand(rng) for _ in range(batch)]
        caching = model()
        results = [caching.contended_times(demands) for _ in range(replays + 1)]
        fresh = model().contended_times(demands)
        assert all(r == fresh for r in results)
        assert caching.solve_cache_hits == replays
