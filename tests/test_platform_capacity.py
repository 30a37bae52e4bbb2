"""Tests for host capacity packing and the extended suite."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.functions.extended import DNA_ALIGNMENT, EXTENDED_SUITE
from repro.platform.capacity import HostCapacity, ResidentVM, packing_density


class TestHostCapacity:
    def test_admission_within_budget(self):
        host = HostCapacity(1024, 4096)
        assert host.admit(ResidentVM("a", 512, 1024))
        assert host.admit(ResidentVM("b", 512, 1024))
        assert not host.admit(ResidentVM("c", 1, 0))
        assert len(host._resident) == 2

    def test_slow_budget_enforced_independently(self):
        host = HostCapacity(10_000, 100)
        assert not host.admit(ResidentVM("big-slow", 1, 200))

    def test_release(self):
        host = HostCapacity(1024, 0)
        host.admit(ResidentVM("a", 512, 0))
        host.release("a")
        assert host.used_fast_mb == 0

    def test_release_refolds_left(self, compensated_sum):
        """After a release the totals are the left fold of the residents
        still admitted, the same bits admission built, on any Python: a
        left fold of (0.3, 0.6, 0.1) is 0.9999999999999999, where the
        compensated ``sum()`` of Python 3.12 gives 1.0."""
        host = HostCapacity(1024, 1024)
        for i, mb in enumerate((0.3, 0.6, 0.1)):
            host.admit(ResidentVM(f"vm{i}", mb, mb))
        folded = host.used_fast_mb
        assert folded == (0.3 + 0.6) + 0.1 != sum((0.3, 0.6, 0.1))
        host.admit(ResidentVM("last", 5.0, 5.0))
        host.release("last")
        assert host.used_fast_mb == folded
        assert host.used_slow_mb == folded

    def test_unknown_release_is_a_typed_error(self):
        """Satellite: a double release (or a release of a name never
        admitted) is an accounting bug and must surface, not be
        silently tolerated."""
        host = HostCapacity(1024, 0)
        host.admit(ResidentVM("a", 512, 0))
        host.release("a")
        with pytest.raises(SchedulerError, match="no resident VM named 'a'"):
            host.release("a")
        with pytest.raises(SchedulerError, match="'ghost'"):
            host.release("ghost")

    def test_duplicate_admit_is_a_typed_error(self):
        """Satellite: admitting a second VM under a resident name would
        make the release handle ambiguous — it must raise."""
        host = HostCapacity(1024, 0)
        assert host.admit(ResidentVM("a", 128, 0))
        with pytest.raises(SchedulerError, match="already resident"):
            host.admit(ResidentVM("a", 128, 0))
        # After release the name is free again.
        host.release("a")
        assert host.admit(ResidentVM("a", 128, 0))

    def test_fill_count(self):
        host = HostCapacity(1024, 8192)
        assert host.fill_count(ResidentVM("f", 128, 896)) == 8  # 8 * 128 MB
        assert host.fill_count(ResidentVM("f", 128, 896), limit=3) == 3
        assert not host._resident and host.used_fast_mb == 0.0

    @given(
        budget=st.tuples(
            st.floats(1.0, 4096.0), st.floats(0.0, 4096.0) | st.just(0.0)
        ),
        vm=st.tuples(
            st.floats(0.0, 512.0) | st.sampled_from([0.1, 0.3, 128.0]),
            st.floats(0.0, 512.0) | st.sampled_from([0.0, 0.7, 896.0]),
        ).filter(lambda v: v[0] + v[1] > 0),
        residents=st.lists(
            st.tuples(st.floats(0.0, 1024.0), st.floats(0.0, 1024.0)).filter(
                lambda v: v[0] + v[1] > 0
            ),
            max_size=6,
        ),
        released=st.sets(st.integers(0, 5)),
        limit=st.integers(0, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_fill_count_matches_admit_loop(
        self, budget, vm, residents, released, limit
    ):
        """``fill_count`` counts exactly the copies an admit loop takes,
        after any mix of admitted and released residents."""
        host = HostCapacity(*budget)
        admitted_residents = [
            i
            for i, (fast_mb, slow_mb) in enumerate(residents)
            if host.admit(ResidentVM(f"r{i}", fast_mb, slow_mb))
        ]
        for i in admitted_residents:
            if i in released:
                host.release(f"r{i}")
        used = (host.used_fast_mb, host.used_slow_mb, len(host._resident))
        count = host.fill_count(ResidentVM("f", *vm), limit=limit)
        assert (host.used_fast_mb, host.used_slow_mb, len(host._resident)) == used
        admitted = 0
        while admitted < limit and host.admit(
            ResidentVM(f"f#{admitted}", *vm)
        ):
            admitted += 1
        assert count == admitted

    def test_invalid_inputs(self):
        with pytest.raises(SchedulerError):
            HostCapacity(0, 100)
        with pytest.raises(SchedulerError):
            ResidentVM("x", -1, 0)
        with pytest.raises(SchedulerError):
            ResidentVM("x", 0, 0)


class TestPackingDensity:
    def test_dram_only_bound(self):
        d, t = packing_density(
            1024, 0.0, host_fast_mb=96 * 1024, host_slow_mb=768 * 1024
        )
        assert d == t == 96

    def test_tiering_multiplies_density(self):
        d, t = packing_density(
            1024, 0.9, host_fast_mb=96 * 1024, host_slow_mb=768 * 1024
        )
        assert d == 96
        # Fast budget allows 960, slow budget caps at 768*1024/921.6 ~ 853.
        assert t > 5 * d

    def test_slow_budget_caps_full_offload(self):
        d, t = packing_density(
            1024, 1.0, host_fast_mb=96 * 1024, host_slow_mb=768 * 1024
        )
        assert t == 768  # bound by the slow tier entirely

    def test_invalid_fraction(self):
        with pytest.raises(SchedulerError):
            packing_density(128, 1.5, host_fast_mb=1024, host_slow_mb=1024)


class TestExtendedSuite:
    def test_catalogue(self):
        assert len(EXTENDED_SUITE) == 4
        assert DNA_ALIGNMENT in EXTENDED_SUITE
        assert DNA_ALIGNMENT.guest_mb == 1024

    def test_traces_build(self):
        for func in EXTENDED_SUITE:
            trace = func.trace(0, 0)
            assert trace.total_accesses > 0
            assert trace.working_set.size == func.ws_pages(0)

    def test_names_disjoint_from_table1(self):
        from repro.functions import SUITE

        base = {f.name for f in SUITE}
        extended = {f.name for f in EXTENDED_SUITE}
        assert not base & extended
