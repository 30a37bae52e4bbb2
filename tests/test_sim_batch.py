"""Bit-identity tests for the vectorized batch event kernel.

The batch fast path (:mod:`repro.sim.batch`, :mod:`repro.sim.batchexec`,
the vectorized contention replay and ``EventLoop.schedule_batch``)
promises *bit-identical* results to the scalar code it shortcuts.  These
tests pin that contract:

* hypothesis properties drive randomized cohorts — including exact
  same-timestamp ties — through both paths and require identical drain
  orders and identical floats;
* the pre-change scalar replay loop is pinned verbatim as a reference
  and the vectorized replay must reproduce its samples exactly;
* the execute kernel (:func:`repro.sim.batchexec.execute_cohort`, and
  ``MicroVM.execute`` as its one-trace case) must reproduce the scalar
  execute loop kept in ``scalar_oracle`` — results and the state it
  writes back into the VM;
* ``invoke_batch`` on real systems, two-tier and compressed-chain,
  must reproduce the per-seed ``invoke`` loop on that oracle field for
  field — and, under an observation, its Perfetto and Prometheus
  exports byte for byte — in one kernel call per cohort, including when
  answered from the per-system cohort memo.
"""

from __future__ import annotations

import copy
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import config
from repro.errors import ConfigError
from repro.memsim.bandwidth import RESOURCES, ContentionModel, TierDemand
from repro.memsim.compressed import (
    DEFLATE_POINT,
    LZ4_POINT,
    ZSTD_POINT,
    compressed_memory_system,
)
from repro.memsim.page_cache import HostPageCache
from repro.memsim.storage import OPTANE_SSD_SPEC
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM
from repro.sim.batch import SampleBuffer, segment_fold_left
from repro.sim.batchexec import execute_cohort
from repro.sim.contention import EventScheduler, UtilizationSample, _summarize
from repro.sim.loop import EventLoop
from repro.vm.microvm import Backing, MicroVM

from scalar_oracle import scalar_execute

# -- strategies ----------------------------------------------------------------

TIMES = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=40,
)


def _with_ties(times: list[float]) -> list[float]:
    """Duplicate half the cohort so exact same-timestamp ties occur."""
    return times + times[: len(times) // 2]


# -- drain order ---------------------------------------------------------------


class TestDrainOrder:
    @given(TIMES)
    @settings(max_examples=60, deadline=None)
    def test_schedule_batch_matches_scalar_scheduling(self, times):
        """Batched and per-call scheduling fire identically, ties FIFO."""
        times = _with_ties(times)
        scalar_loop = EventLoop()
        scalar_fired: list[tuple[int, float]] = []
        seq = {"i": 0}

        def scalar_cb(now: float) -> None:
            scalar_fired.append((seq["i"], now))
            seq["i"] += 1

        for t in times:
            scalar_loop.schedule_at(t, scalar_cb, priority=2, category="a")
        scalar_loop.run()

        batch_loop = EventLoop()
        batch_fired: list[tuple[int, float]] = []
        bseq = {"i": 0}

        def batch_cb(now: float) -> None:
            batch_fired.append((bseq["i"], now))
            bseq["i"] += 1

        entries = batch_loop.schedule_batch(
            times, batch_cb, priority=2, category="a"
        )
        assert len(entries) == len(times)
        assert batch_loop.live_count("a") == len(times)
        batch_loop.run()
        assert batch_fired == scalar_fired
        assert batch_loop.now == scalar_loop.now

    def test_schedule_batch_rejects_past_and_bad_shapes(self):
        loop = EventLoop(start_s=5.0)
        with pytest.raises(ConfigError):
            loop.schedule_batch([6.0, 4.0], lambda _n: None)
        with pytest.raises(ConfigError):
            loop.schedule_batch(np.zeros((2, 2)), lambda _n: None)
        assert loop.schedule_batch([], lambda _n: None) == []


# -- segment folds -------------------------------------------------------------

RAGGED = st.lists(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=0,
        max_size=8,
    ),
    min_size=1,
    max_size=12,
)


class TestSegmentFolds:
    @given(RAGGED)
    @settings(max_examples=80, deadline=None)
    def test_fold_left_matches_scalar_accumulation(self, segments):
        values = np.array(
            [x for seg in segments for x in seg], dtype=np.float64
        )
        ptr = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in segments], out=ptr[1:])
        got = segment_fold_left(values, ptr)
        for i, seg in enumerate(segments):
            acc = 0.0
            for x in seg:
                acc += x
            assert got[i] == acc


# -- contention replay ---------------------------------------------------------


def _scalar_replay(model, demands, times, inflation):
    """The pre-vectorization event-loop replay, pinned verbatim."""
    loop = EventLoop()
    capacities = model.capacities
    active_rate = {r: 0.0 for r in RESOURCES}
    samples: list[UtilizationSample] = []

    def sample(_now):
        for r in RESOURCES:
            samples.append(
                UtilizationSample(
                    time_s=loop.now,
                    resource=r,
                    offered_rho=active_rate[r] / capacities[r],
                    inflation=inflation[r],
                )
            )

    def finish(delta, t):
        def _fire(_now):
            for r in RESOURCES:
                active_rate[r] -= delta[r]
            sample(_now)

        loop.schedule_at(t, _fire)

    for demand, t in zip(demands, times):
        work = demand._stalls_and_work()
        denom = max(t, 1e-12)
        delta = {r: work[r][1] / denom for r in RESOURCES}
        for r in RESOURCES:
            active_rate[r] += delta[r]
        finish(delta, t)
    sample(loop.now)
    loop.run()
    return tuple(samples)


DEMANDS = st.lists(
    st.builds(
        TierDemand,
        cpu_time_s=st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
        slow_read_stall_s=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
        slow_read_ops=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        uffd_stall_s=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
        uffd_ops=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    ),
    min_size=1,
    max_size=16,
)


class TestReplayIdentity:
    @given(DEMANDS)
    @settings(max_examples=40, deadline=None)
    def test_vectorized_replay_matches_scalar(self, demands):
        demands = demands + demands[: len(demands) // 2]  # tie times
        model = ContentionModel(DEFAULT_MEMORY_SYSTEM, OPTANE_SSD_SPEC)
        engine = EventScheduler(model)
        times, inflation = model._solve(demands)
        reference = _scalar_replay(model, demands, times, inflation)
        got_times, got_infl = engine.run_synchronized(demands)
        assert got_times == times
        assert got_infl == dict(inflation)
        assert engine.utilization_summary() == _summarize(reference)
        assert engine.last_samples == reference
        # After materialization the summary comes from the tuple path.
        assert engine.utilization_summary() == _summarize(reference)

    def test_sample_buffer_round_trip(self):
        buf = SampleBuffer(3)
        buf.fill_events(
            np.array([0.0]), np.full((1, 5), 0.1), np.full((1, 5), 1.0)
        )
        buf.fill_events(
            np.array([1.0, 2.0]),
            np.full((2, 5), 0.25),
            np.full((2, 5), 1.5),
        )
        assert buf.n_events == 3 and len(buf) == 15
        samples = buf.to_samples()
        assert [s.resource for s in samples[:5]] == list(RESOURCES)
        assert buf.summarize() == _summarize(samples)

    def test_empty_buffer_summary(self):
        assert SampleBuffer(0).summarize() == _summarize(())


# -- batch invoke --------------------------------------------------------------


def _assert_outcomes_identical(scalar, batch):
    assert len(scalar) == len(batch)
    for a, b in zip(scalar, batch):
        assert (a.system, a.input_index, a.seed) == (
            b.system,
            b.input_index,
            b.seed,
        )
        assert a.setup_time_s == b.setup_time_s
        for f in dataclasses.fields(a.execution.counters):
            va = getattr(a.execution.counters, f.name)
            vb = getattr(b.execution.counters, f.name)
            assert va == vb and type(va) is type(vb), f.name
        for f in dataclasses.fields(a.execution.demand):
            va = getattr(a.execution.demand, f.name)
            vb = getattr(b.execution.demand, f.name)
            assert va == vb and type(va) is type(vb), f.name
        assert a.execution.label == b.execution.label
        assert len(a.execution.epoch_records) == len(b.execution.epoch_records)
        for ra, rb in zip(a.execution.epoch_records, b.execution.epoch_records):
            assert ra.duration_s == rb.duration_s
            assert (ra.pages == rb.pages).all()
            assert (ra.counts == rb.counts).all()


LZ4_CHAIN = compressed_memory_system((LZ4_POINT,))

# The two-tier, unobserved cases keep their historical ids.
BATCH_CASES = [
    pytest.param(kind, chain, observed, id=(
        kind if (chain, observed) == ("two-tier", False)
        else f"{kind}-{chain}-{'observed' if observed else 'unobserved'}"
    ))
    for chain in ("two-tier", "lz4")
    for observed in (False, True)
    for kind in ("dram", "toss", "reap", "faasnap", "vanilla")
]


@functools.lru_cache(maxsize=None)
def _batch_system(kind: str, chain: str):
    from repro.baselines import FaasnapSystem, VanillaLazy
    from repro.experiments.common import (
        CONVERGENCE_WINDOW,
        dram_cached,
        reap_cached,
        toss_cached,
        vanilla_cached,
    )
    from repro.functions import get_function

    name = "float_operation"
    if chain == "two-tier":
        if kind == "dram":
            return dram_cached(name)
        if kind == "toss":
            return toss_cached(name)
        if kind == "reap":
            return reap_cached(name, 3)
        if kind == "vanilla":
            return vanilla_cached(name)
        return FaasnapSystem(get_function(name), snapshot_input=3)
    from repro.baselines import DramBaseline, ReapSystem, TossSystem

    function = get_function(name)
    if kind == "dram":
        return DramBaseline(function, memory=LZ4_CHAIN)
    if kind == "toss":
        return TossSystem(
            function, convergence_window=CONVERGENCE_WINDOW, memory=LZ4_CHAIN
        )
    if kind == "reap":
        return ReapSystem(function, snapshot_input=3, memory=LZ4_CHAIN)
    if kind == "vanilla":
        return VanillaLazy(function, memory=LZ4_CHAIN)
    return FaasnapSystem(function, snapshot_input=3, memory=LZ4_CHAIN)


def _exports(obs):
    from repro.obs import perfetto_json, prometheus_text

    return (
        perfetto_json(obs.tracer),
        prometheus_text(obs.metrics),
        len(obs.tracer.spans),
    )


def _oracle_invokes(system, seeds, observed, monkeypatch):
    """The reference: the per-seed ``invoke`` loop on the scalar oracle,
    plus its exports when ``observed``."""
    from repro.obs.runtime import observing

    with monkeypatch.context() as m:
        m.setattr(MicroVM, "execute", scalar_execute)
        if not observed:
            return [system.invoke(1, s) for s in seeds], None
        with observing() as obs:
            outcomes = [system.invoke(1, s) for s in seeds]
        return outcomes, _exports(obs)


def _counted_invoke_batch(system, seeds, observed, monkeypatch):
    """``invoke_batch`` with no per-seed execute allowed; returns its
    outcomes, exports (when ``observed``) and kernel call count."""
    import repro.baselines.base as base
    from repro.obs.runtime import observing

    calls = []
    kernel = base.execute_cohort

    def counted(vm, traces):
        calls.append(len(traces))
        return kernel(vm, traces)

    with monkeypatch.context() as m:
        m.setattr(MicroVM, "execute", _no_scalar_execute)
        m.setattr(base, "execute_cohort", counted)
        if not observed:
            return system.invoke_batch(1, seeds), None, len(calls)
        with observing() as obs:
            outcomes = system.invoke_batch(1, seeds)
        return outcomes, _exports(obs), len(calls)


@pytest.mark.parametrize("system_kind, chain, observed", BATCH_CASES)
def test_invoke_batch_bit_identical(system_kind, chain, observed, monkeypatch):
    """invoke_batch == the per-seed invoke loop on the scalar oracle —
    outcomes and, under an observation, the Perfetto trace, the
    Prometheus text and the span count — in one kernel call (no
    per-seed execute), then again from the cohort memo with none."""
    system = _batch_system(system_kind, chain)
    # The systems are shared: start from an empty memo, so the first
    # batch call executes whatever ran before.
    system._cohort_memo.clear()
    seeds = list(range(40, 44) if observed else range(4))
    scalar, want = _oracle_invokes(system, seeds, observed, monkeypatch)
    for kernel_calls in (1, 0):  # the second call answers from the memo
        outcomes, got, calls = _counted_invoke_batch(
            system, seeds, observed, monkeypatch
        )
        _assert_outcomes_identical(scalar, outcomes)
        assert got == want
        assert calls == kernel_calls
    # Mutating a returned counters object must not poison the memo.
    outcomes[0].execution.counters.cpu_time_s = -1.0
    _assert_outcomes_identical(
        scalar, _counted_invoke_batch(system, seeds, False, monkeypatch)[0]
    )


def _no_scalar_execute(vm, trace):
    raise AssertionError("invoke_batch executed seed by seed")


def test_invoke_batch_page_cache_probe_emits_nothing(monkeypatch):
    """A lazy restore's cohort runs through the host page cache in one
    kernel call; the one restore it makes, with observation suspended,
    adds no spans or metrics of its own."""
    from repro.experiments.common import vanilla_cached

    system = vanilla_cached("float_operation")
    system._cohort_memo.clear()
    seeds = [0, 1, 2]
    scalar, want = _oracle_invokes(system, seeds, True, monkeypatch)
    batch, got, calls = _counted_invoke_batch(system, seeds, True, monkeypatch)
    _assert_outcomes_identical(scalar, batch)
    assert got == want
    assert calls == 1


# -- cohort census and tallies over the flat trace layout ----------------------

CENSUS_PAGES = 48

EPOCH_SETS = st.lists(
    st.sets(st.integers(min_value=0, max_value=CENSUS_PAGES - 1), max_size=20),
    min_size=1,
    max_size=7,
)


def _trace_from_sets(epoch_sets, rf=0.0, sf=0.0):
    from repro.trace.events import AccessEpoch, InvocationTrace

    epochs = tuple(
        AccessEpoch(
            cpu_time_s=0.001 * (i + 1),
            pages=np.array(sorted(pages), dtype=np.int64),
            counts=np.array([1 + (p * 7 + i) % 13 for p in sorted(pages)],
                            dtype=np.int64),
            random_fraction=rf,
            store_fraction=sf,
        )
        for i, pages in enumerate(epoch_sets)
    )
    return InvocationTrace(n_pages=CENSUS_PAGES, epochs=epochs)


class TestFirstTouchCensus:
    @given(EPOCH_SETS)
    @example([set()])  # a single empty epoch
    @example([{3, 9}])  # a single-epoch trace
    @example([set(), {1}, set(), set()])  # empty epochs around a touch
    @example([{1, 2}, {2}, {40, 1}])  # page 40 first touched in the last epoch
    @settings(max_examples=150, deadline=None)
    def test_dense_census_matches_unique_reference(self, epoch_sets):
        """The kernel's census faults each page in the epoch that first
        touches it, over a dense residency mask, exactly as the
        first-occurrence reference says."""
        from repro.sim.batchexec import _cold_touches

        trace = _trace_from_sets(epoch_sets)
        _, first_idx = np.unique(trace.pages, return_index=True)
        ref_pages = trace.pages[first_idx]
        ref_epoch = np.searchsorted(trace.epoch_ptr, first_idx, side="right") - 1
        seen = np.zeros(trace.n_pages, dtype=bool)
        cold = _cold_touches(trace, seen)
        pages = np.concatenate(cold)
        epochs = np.repeat(np.arange(len(cold)), [c.size for c in cold])
        order = np.argsort(pages)
        np.testing.assert_array_equal(pages[order], ref_pages)
        np.testing.assert_array_equal(epochs[order], ref_epoch)
        np.testing.assert_array_equal(np.flatnonzero(seen), ref_pages)


BACKINGS = tuple(int(b) for b in Backing)  # every kind, SSD-backed included

TALLY_MEMORIES = (
    DEFAULT_MEMORY_SYSTEM,
    LZ4_CHAIN,
    # Two middle tiers over a compressed terminal tier: pool pages placed on the slow tier id
    # pay its codec too.
    compressed_memory_system((LZ4_POINT, ZSTD_POINT, DEFLATE_POINT), slow=None),
)

PAGE_MASK = st.lists(st.booleans(), min_size=CENSUS_PAGES, max_size=CENSUS_PAGES)


def _state(vm):
    """Everything an execute may write into its VM."""
    cache = vm.page_cache
    return (
        vm._resident.copy(),
        vm.page_versions.copy(),
        None if cache is None else cache.resident_mask(),
        None if cache is None else cache._prefetched.copy(),
    )


def _assert_state_equal(a, b):
    for x, y in zip(_state(a), _state(b)):
        if x is None or y is None:
            assert x is y
        else:
            np.testing.assert_array_equal(x, y)


def _assert_execution_equal(got, want):
    assert got.counters == want.counters
    for f in dataclasses.fields(got.counters):
        assert type(getattr(got.counters, f.name)) is type(
            getattr(want.counters, f.name)
        ), f.name
    assert got.demand == want.demand
    assert [r.duration_s for r in got.epoch_records] == [
        r.duration_s for r in want.epoch_records
    ]


class TestCohortTallies:
    @given(
        st.sampled_from(TALLY_MEMORIES),
        st.lists(EPOCH_SETS, min_size=1, max_size=4),
        st.data(),
        st.sampled_from([0.0, 0.3]),
        st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=200, deadline=None)
    def test_execute_cohort_matches_scalar_execute(
        self, memory, cohort, data, rf, sf
    ):
        """The kernel == the scalar oracle, bit for bit, on any chain,
        for any placement over its tier ids, any backing mix (SSD-backed
        and compressed-pool pages on any tier included), any initial
        residency and any pre-populated host page cache: per cohort
        member, each on its own VM, the first on the template itself;
        and over two consecutive executes on one VM.  The state each
        execute leaves in its VM must match too."""
        pages = st.lists(
            st.integers(0, memory.n_tiers - 1),
            min_size=CENSUS_PAGES,
            max_size=CENSUS_PAGES,
        )
        placement = np.array(data.draw(pages), dtype=np.uint8)
        backing = np.array(
            data.draw(st.lists(st.sampled_from(BACKINGS), min_size=CENSUS_PAGES,
                               max_size=CENSUS_PAGES)),
            dtype=np.uint8,
        )
        # Pages already touched before the first execute (resident
        # backing always is).
        resident = np.array(data.draw(PAGE_MASK)) | (backing == 0)
        cache = HostPageCache(
            CENSUS_PAGES, readahead_pages=config.READAHEAD_PAGES
        )
        cached = sorted(data.draw(st.sets(st.integers(0, CENSUS_PAGES - 1))))
        cache.fault_in(np.array(cached, dtype=np.int64))

        def fresh():
            vm = MicroVM(
                CENSUS_PAGES,
                memory=memory,
                placement=placement,
                backing=backing,
                page_cache=copy.deepcopy(cache),
            )
            vm._resident = resident.copy()
            return vm

        traces = [_trace_from_sets(sets, rf, sf) for sets in cohort]
        template = fresh()
        batch = execute_cohort(template, traces)
        for i, (trace, got) in enumerate(zip(traces, batch)):
            oracle = fresh()
            _assert_execution_equal(got, scalar_execute(oracle, trace))
            if i == 0:  # the first member ran on the template itself
                _assert_state_equal(template, oracle)

        vm, oracle = fresh(), fresh()
        for trace in (traces * 2)[:2]:
            _assert_execution_equal(vm.execute(trace), scalar_execute(oracle, trace))
            _assert_state_equal(vm, oracle)


class TestCohortMemory:
    def test_cohort_reads_trace_columns_without_copying(self, tiny_function):
        """execute_cohort allocates well under the traces' own column
        bytes: no cohort-wide page-level column is ever concatenated."""
        import tracemalloc

        from repro.memsim.tiers import Tier
        from repro.sim.batchexec import _flat

        traces = [tiny_function.trace(3, seed) for seed in range(50)]
        column_bytes = sum(t.pages.nbytes + t.counts.nbytes for t in traces)
        n = tiny_function.n_pages
        template = MicroVM(
            n,
            placement=np.where(np.arange(n) % 2, int(Tier.SLOW), int(Tier.FAST)),
            backing=np.full(n, int(Backing.DAX_SLOW)),
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results = execute_cohort(template, traces)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(results) == 50
        assert results[0].counters.slow_accesses > 0
        assert peak < column_bytes / 2, (peak, column_bytes)
        # The per-trace memo keeps no page-level copy of the columns:
        # every column it holds is one value per epoch.
        fields = {f.name for f in dataclasses.fields(_flat(traces[0]))}
        assert not fields & {"pages", "counts", "epoch_sizes"}
        flat = _flat(traces[0])
        for name in fields:
            assert getattr(flat, name).shape == (len(traces[0].epochs),), name
