"""Tests for snapshot objects."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.durability import ChunkIndex, chunk_digests
from repro.errors import SnapshotCorruptionError, SnapshotError
from repro.faults import BitRotSpec, FaultInjector, FaultPlan, SnapshotFaultSpec
from repro.memsim.tiers import Tier
from repro.vm.layout import MemoryLayout
from repro.vm.snapshot import (
    ReapSnapshot,
    SingleTierSnapshot,
    TieredSnapshot,
    checksum_pages,
    format_page_indices,
)

from snapshot_oracle import TwoArraySnapshot


def snap(n_pages=1024, label="s") -> SingleTierSnapshot:
    return SingleTierSnapshot(
        n_pages=n_pages,
        page_versions=np.arange(n_pages, dtype=np.uint64),
        label=label,
    )


class TestSingleTierSnapshot:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(SnapshotError):
            SingleTierSnapshot(n_pages=10, page_versions=np.zeros(5, dtype=np.uint64))


class TestWriteLedger:
    def test_direct_writes_raise(self):
        # Content changes only through write_pages, so no writer can
        # bypass the ledger: clean or damaged, the arrays are read-only.
        s = snap()
        for damaged in (False, True):
            if damaged:
                s.write_pages([5], s.read_pages([5]) + np.uint64(1))
            with pytest.raises(ValueError):
                s.page_versions[0] = np.uint64(9)
            with pytest.raises(ValueError):
                s.page_versions[[1, 2]] += np.uint64(1)
            with pytest.raises(ValueError):
                s.page_checksums[0] = np.uint64(9)

    def test_write_back_to_capture_clears_the_page(self):
        s = snap()
        image = s.page_versions
        s.write_pages([3, 9], [np.uint64(70), np.uint64(9)])
        assert s.corrupt_pages().tolist() == [3]
        s.write_pages([3], [np.uint64(3)])
        assert s.corrupt_pages().size == 0
        assert s.page_versions is image

    def test_out_of_range_write_rejected(self):
        s = snap(16)
        with pytest.raises(SnapshotError):
            s.write_pages([16], [np.uint64(0)])
        with pytest.raises(SnapshotError):
            s.read_pages([-1])


_N_PAGES = 700
_CHUNK_PAGES = 64

_OPS = st.one_of(
    st.tuples(st.just("copy"), st.integers(0, 99)),
    st.tuples(st.just("corrupt"), st.integers(0, 99)),
    st.tuples(
        st.just("rot"),
        st.integers(0, 99),
        st.floats(0.0, 50.0),
        st.sampled_from(["dram", "pmem", "ssd"]),
    ),
    st.tuples(st.just("tear"), st.integers(0, 99)),
    st.tuples(
        st.just("repair"),
        st.integers(0, 99),
        st.integers(0, 99),
        st.integers(0, (_N_PAGES - 1) // _CHUNK_PAGES),
    ),
    st.tuples(
        st.just("write"),
        st.integers(0, 99),
        st.lists(st.integers(0, _N_PAGES - 1), min_size=1, max_size=8),
        st.integers(0, 3),
    ),
    st.tuples(st.just("verify"), st.integers(0, 99)),
)


def _plan(seed: int) -> FaultPlan:
    return FaultPlan(
        snapshot=SnapshotFaultSpec(corruption_rate=1.0, corrupt_pages=5),
        bitrot=BitRotSpec(
            dram_rate_per_page_s=1e-4,
            pmem_rate_per_page_s=1e-3,
            ssd_rate_per_page_s=5e-3,
            latent_sector_rate_per_s=0.02,
            latent_sector_pages=24,
            torn_write_rate=0.5,
            torn_write_pages=7,
        ),
        seed=seed,
    )


def _apply(op, pool, injector, index):
    """Run one operation on one pool; returns what it reports."""
    kind, i = op[0], op[1] % len(pool)
    if kind == "copy":
        pool.append(pool[i].copy())
        return None
    if kind == "corrupt":
        return injector.corrupt_snapshot(pool[i]).tolist()
    if kind == "rot":
        return injector.rot_snapshot(pool[i], op[2], op[3]).tolist()
    if kind == "tear":
        return injector.tear_write(pool[i]).tolist()
    if kind == "repair":
        return index.repair_chunk(pool[i], pool[op[2] % len(pool)], op[3])
    if kind == "write":
        # delta 0 writes a page back to its current content; the others
        # flip it, so a repeat of the same page may restore its capture.
        pages = op[2]
        old = pool[i].read_pages(pages)
        pool[i].write_pages(pages, old + np.uint64(op[3]) * np.uint64(0x51))
        return None
    try:
        pool[i].verify()
    except SnapshotCorruptionError as err:
        return (str(err), err.corrupt_pages.tolist())
    return None


def _state(s, index):
    versions = s.page_versions
    return (
        versions.tolist(),
        s.page_checksums.tolist(),
        s.corrupt_pages().tolist(),
        ChunkIndex.for_snapshot(s, _CHUNK_PAGES).digests.tolist(),
        chunk_digests(checksum_pages(versions), _CHUNK_PAGES).tolist(),
        index.bad_chunks(s).tolist(),
    )


class TestLedgerMatchesTwoArrays:
    @given(
        ops=st.lists(_OPS, min_size=1, max_size=25),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_histories_agree(self, ops, seed):
        versions = np.random.default_rng(seed).integers(
            0, 2**63, size=_N_PAGES, dtype=np.uint64
        )
        ledger = [SingleTierSnapshot(_N_PAGES, versions.copy(), "s")]
        dense = [TwoArraySnapshot(_N_PAGES, versions.copy(), "s")]
        index = ChunkIndex.for_snapshot(ledger[0], _CHUNK_PAGES)
        inj_ledger = FaultInjector(_plan(seed))
        inj_dense = FaultInjector(_plan(seed))
        for op in ops:
            before = [s.page_versions.copy() for s in ledger]
            got = _apply(op, ledger, inj_ledger, index)
            want = _apply(op, dense, inj_dense, index)
            assert got == want
            assert len(ledger) == len(dense)
            for a, b in zip(ledger, dense):
                assert _state(a, index) == _state(b, index)
            if op[0] == "copy":
                src, twin = ledger[op[1] % (len(ledger) - 1)], ledger[-1]
                if src.corrupt_pages().size == 0:
                    assert np.shares_memory(twin.page_versions, src.page_versions)
                continue
            # A write reaches only the copy it names, never a twin.
            target = op[1] % len(ledger)
            for k, s in enumerate(ledger):
                if k != target:
                    assert np.array_equal(s.page_versions, before[k])


class TestFormatPageIndices:
    def test_short_arrays_listed_fully(self):
        pages = np.array([3, 7, 11], dtype=np.int64)
        assert format_page_indices(pages) == "3, 7, 11"

    def test_long_arrays_capped_with_count(self):
        pages = np.arange(10_000, dtype=np.int64)
        text = format_page_indices(pages)
        assert text.startswith("0, 1, 2, 3, 4, 5, 6, 7, 8, 9")
        assert text.endswith("... (9990 more)")


class TestVerifyMessageBounded:
    def test_huge_corruption_yields_short_message_full_array(self):
        # Regression: a mass corruption used to put the full index
        # array repr in the message.  The message must stay one short
        # line while the exception keeps the complete array for
        # programmatic consumers.
        n_pages = 200_000
        s = snap(n_pages)
        half = np.arange(0, n_pages, 2)
        s.write_pages(half, s.read_pages(half) + np.uint64(1))  # corrupt half
        with pytest.raises(SnapshotCorruptionError) as excinfo:
            s.verify()
        message = str(excinfo.value)
        assert len(message) < 300
        assert "(99990 more)" in message
        assert f"100000 of {n_pages} pages" in message
        assert excinfo.value.corrupt_pages.size == 100_000
        assert np.array_equal(
            excinfo.value.corrupt_pages,
            np.arange(0, n_pages, 2, dtype=np.int64),
        )


class TestReapSnapshot:
    def test_ws_accounting(self):
        base = snap()
        mask = np.zeros(1024, dtype=bool)
        mask[:100] = True
        r = ReapSnapshot(base=base, ws_mask=mask, snapshot_input=2)
        assert r.ws_pages == 100
        assert r.ws_bytes == 100 * config.PAGE_SIZE
        assert r.n_pages == 1024

    def test_mask_mismatch_rejected(self):
        with pytest.raises(SnapshotError):
            ReapSnapshot(base=snap(), ws_mask=np.zeros(10, dtype=bool))


class TestTieredSnapshot:
    def _tiered(self, slow_pages=700, n_pages=1024, sd=1.1):
        placement = np.zeros(n_pages, dtype=np.uint8)
        placement[:slow_pages] = int(Tier.SLOW)
        return TieredSnapshot(
            base=snap(n_pages),
            layout=MemoryLayout.from_placement(placement),
            expected_slowdown=sd,
        )

    def test_fractions(self):
        t = self._tiered(768, 1024)
        assert t.slow_fraction == pytest.approx(0.75)

    def test_tier_bytes(self):
        t = self._tiered(700, 1024)
        assert t.layout.pages_in_tier(Tier.SLOW) == 700
        assert t.layout.pages_in_tier(Tier.FAST) == 324

    def test_layout_size_mismatch_rejected(self):
        placement = np.zeros(512, dtype=np.uint8)
        with pytest.raises(SnapshotError):
            TieredSnapshot(
                base=snap(1024),
                layout=MemoryLayout.from_placement(placement),
            )

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(SnapshotError):
            self._tiered(sd=0.9)

    def test_placement_round_trip(self):
        t = self._tiered(100, 1024)
        placement = t.placement()
        assert int((placement == int(Tier.SLOW)).sum()) == 100
