"""Cross-cutting property tests on the simulator's core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import normalized_cost
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM, Tier
from repro.trace.events import AccessEpoch, InvocationTrace
from repro.vm.microvm import Backing, MicroVM

N_PAGES = 2048


@st.composite
def traces(draw):
    """Random small traces."""
    n_epochs = draw(st.integers(min_value=1, max_value=4))
    epochs = []
    for _ in range(n_epochs):
        n_touched = draw(st.integers(min_value=0, max_value=64))
        pages = draw(
            st.lists(
                st.integers(min_value=0, max_value=N_PAGES - 1),
                min_size=n_touched,
                max_size=n_touched,
                unique=True,
            )
        )
        pages = np.asarray(sorted(pages), dtype=np.int64)
        counts = np.asarray(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=10_000),
                    min_size=len(pages),
                    max_size=len(pages),
                )
            ),
            dtype=np.int64,
        )
        epochs.append(
            AccessEpoch(
                cpu_time_s=draw(
                    st.floats(min_value=1e-5, max_value=0.01)
                ),
                pages=pages,
                counts=counts,
                random_fraction=draw(st.floats(min_value=0, max_value=1)),
                store_fraction=draw(st.floats(min_value=0, max_value=1)),
            )
        )
    return InvocationTrace(n_pages=N_PAGES, epochs=tuple(epochs))


@st.composite
def placements(draw):
    """Random two-tier placements as band patterns."""
    n_bands = draw(st.integers(min_value=1, max_value=8))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=N_PAGES - 1),
                min_size=n_bands - 1,
                max_size=n_bands - 1,
                unique=True,
            )
        )
    )
    placement = np.zeros(N_PAGES, dtype=np.uint8)
    bounds = [0, *cuts, N_PAGES]
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        placement[a:b] = i % 2
    return placement


class TestExecutionInvariants:
    @given(trace=traces(), placement=placements())
    @settings(max_examples=80, deadline=None)
    def test_slow_never_faster_than_fast(self, trace, placement):
        all_fast = np.zeros(N_PAGES, dtype=np.uint8)
        t_mixed = MicroVM(N_PAGES, placement=placement).execute(trace).time_s
        t_fast = MicroVM(N_PAGES, placement=all_fast).execute(trace).time_s
        assert t_mixed >= t_fast - 1e-15

    @given(trace=traces(), placement=placements())
    @settings(max_examples=60, deadline=None)
    def test_accesses_conserved(self, trace, placement):
        res = MicroVM(N_PAGES, placement=placement).execute(trace)
        assert res.counters.total_accesses == trace.total_accesses

    @given(trace=traces(), placement=placements())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_offloading(self, trace, placement):
        """Moving extra pages to the slow tier never speeds things up."""
        more_slow = placement.copy()
        more_slow[: N_PAGES // 2] = int(Tier.SLOW)
        more_slow = np.maximum(more_slow, placement)
        t_a = MicroVM(N_PAGES, placement=placement).execute(trace).time_s
        t_b = MicroVM(N_PAGES, placement=more_slow).execute(trace).time_s
        assert t_b >= t_a - 1e-15

    @given(trace=traces())
    @settings(max_examples=40, deadline=None)
    def test_additivity_of_stalls(self, trace):
        """Stall time decomposes additively over page subsets: offloading
        A∪B costs exactly offloading A plus offloading B (no faults)."""
        half = N_PAGES // 2
        a = np.zeros(N_PAGES, dtype=np.uint8)
        a[:half] = 1
        b = np.zeros(N_PAGES, dtype=np.uint8)
        b[half:] = 1
        both = np.ones(N_PAGES, dtype=np.uint8)
        base = MicroVM(N_PAGES).execute(trace).time_s
        da = MicroVM(N_PAGES, placement=a).execute(trace).time_s - base
        db = MicroVM(N_PAGES, placement=b).execute(trace).time_s - base
        dboth = MicroVM(N_PAGES, placement=both).execute(trace).time_s - base
        assert dboth == pytest.approx(da + db, rel=1e-9, abs=1e-12)

    @given(trace=traces())
    @settings(max_examples=40, deadline=None)
    def test_fault_counts_bounded_by_working_set(self, trace):
        backing = np.full(N_PAGES, int(Backing.UFFD_SSD), dtype=np.uint8)
        res = MicroVM(N_PAGES, backing=backing).execute(trace)
        assert res.counters.major_faults == trace.working_set.size

    @given(trace=traces(), placement=placements())
    @settings(max_examples=40, deadline=None)
    def test_demand_time_equals_execution_time(self, trace, placement):
        res = MicroVM(N_PAGES, placement=placement).execute(trace)
        assert res.demand.nominal_time_s == pytest.approx(res.time_s)


class TestCostInvariants:
    @given(
        sd_a=st.floats(min_value=1.0, max_value=5.0),
        sd_b=st.floats(min_value=1.0, max_value=5.0),
        fast=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_monotone_in_slowdown(self, sd_a, sd_b, fast):
        lo, hi = sorted([sd_a, sd_b])
        assert normalized_cost(lo, fast) <= normalized_cost(hi, fast) + 1e-12

    @given(fast=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_zero_slowdown_cost_bounds(self, fast):
        cost = normalized_cost(1.0, fast)
        optimal = DEFAULT_MEMORY_SYSTEM.optimal_normalized_cost
        assert optimal - 1e-12 <= cost <= 1.0 + 1e-12
