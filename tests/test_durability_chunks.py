"""Content-addressed chunk index: digests, localisation, chunk repair."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import ChunkIndex, chunk_digests, content_key
from repro.durability.chunks import _CHUNK_MIX, _POSITION_SALT
from repro.errors import ConfigError, SnapshotError
from repro.vm.snapshot import SingleTierSnapshot, checksum_pages


def snap(n_pages: int = 1024, label: str = "s") -> SingleTierSnapshot:
    return SingleTierSnapshot(
        n_pages=n_pages,
        page_versions=np.arange(n_pages, dtype=np.uint64),
        label=label,
    )


class TestChunkDigests:
    def test_one_digest_per_chunk_last_short(self):
        checksums = checksum_pages(np.arange(1000, dtype=np.uint64))
        digests = chunk_digests(checksums, 256)
        assert digests.shape == (4,)  # 256+256+256+232

    def test_empty_input(self):
        assert chunk_digests(np.empty(0, dtype=np.uint64), 4).shape == (0,)

    def test_chunk_pages_validated(self):
        with pytest.raises(ConfigError):
            chunk_digests(np.arange(8, dtype=np.uint64), 0)

    def test_swap_inside_chunk_changes_digest(self):
        # The fold is position-salted: content is addressed, not just
        # multiset-of-pages.
        checksums = checksum_pages(np.arange(8, dtype=np.uint64))
        swapped = checksums.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert chunk_digests(checksums, 8) != chunk_digests(swapped, 8)

    def test_copies_share_digests(self):
        a = snap()
        b = a.copy()
        assert np.array_equal(
            chunk_digests(a.page_checksums, 256),
            chunk_digests(b.page_checksums, 256),
        )


def _parent_chunk_digests(checksums, chunk_pages):
    """The page-length expression ``chunk_digests`` replaced."""
    n = checksums.shape[0]
    positions = np.arange(n, dtype=np.uint64) % np.uint64(chunk_pages)
    salted = (checksums ^ (positions * _POSITION_SALT)) * _CHUNK_MIX
    return np.bitwise_xor.reduceat(salted, np.arange(0, n, chunk_pages))


class TestInPlaceDigests:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=600
        ),
        st.one_of(st.just(1), st.integers(min_value=1, max_value=700)),
    )
    @settings(max_examples=150, deadline=None)
    def test_digests_and_checksums_match_page_length_expressions(
        self, versions, chunk_pages
    ):
        v = np.array(versions, dtype=np.uint64)
        checksums = checksum_pages(v)
        parent = (v * np.uint64(0x9E3779B97F4A7C15)) ^ (v >> np.uint64(7))
        np.testing.assert_array_equal(checksums, parent)
        np.testing.assert_array_equal(
            chunk_digests(checksums, chunk_pages),
            _parent_chunk_digests(parent, chunk_pages),
        )


class TestContentKey:
    def test_equal_sequences_equal_keys(self):
        d = chunk_digests(checksum_pages(np.arange(512, dtype=np.uint64)), 64)
        assert content_key(d) == content_key(d.copy())

    def test_order_sensitive(self):
        d = chunk_digests(checksum_pages(np.arange(512, dtype=np.uint64)), 64)
        assert content_key(d) != content_key(d[::-1])

    def test_empty_is_zero(self):
        assert content_key(np.empty(0, dtype=np.uint64)) == 0


class TestChunkIndex:
    def test_bounds_and_counts(self):
        index = ChunkIndex.for_snapshot(snap(1000), 256)
        assert index.n_chunks == 4
        assert index.chunk_bounds(0) == (0, 256)
        assert index.chunk_bounds(3) == (768, 1000)
        with pytest.raises(ConfigError):
            index.chunk_bounds(4)

    def test_damage_localised_to_its_chunk(self):
        s = snap()
        index = ChunkIndex.for_snapshot(s, 256)
        assert index.bad_chunks(s).size == 0
        s.write_pages([300], s.read_pages([300]) + np.uint64(1))
        assert index.bad_chunks(s).tolist() == [1]
        assert not index.chunk_clean(s, 1)
        assert index.chunk_clean(s, 0)

    def test_size_mismatch_rejected(self):
        index = ChunkIndex.for_snapshot(snap(1024), 256)
        with pytest.raises(SnapshotError):
            index.bad_chunks(snap(512))

    def test_repair_chunk_from_clean_copy(self):
        damaged = snap()
        source = damaged.copy()
        index = ChunkIndex.for_snapshot(damaged, 256)
        damaged.write_pages([300], damaged.read_pages([300]) + np.uint64(1))
        assert index.repair_chunk(damaged, source, 1)
        assert index.bad_chunks(damaged).size == 0
        damaged.verify()  # checksums hold again

    def test_repair_refuses_rotted_source(self):
        damaged = snap()
        source = damaged.copy()
        index = ChunkIndex.for_snapshot(damaged, 256)
        damaged.write_pages([300], damaged.read_pages([300]) + np.uint64(1))
        source.write_pages([301], source.read_pages([301]) + np.uint64(7))
        assert not index.repair_chunk(damaged, source, 1)
        assert index.bad_chunks(damaged).tolist() == [1]

    def test_mutated_index_is_independent(self):
        index = ChunkIndex.for_snapshot(snap(), 256)
        other = dataclasses.replace(
            index, digests=index.digests ^ np.uint64(1)
        )
        assert not np.array_equal(index.digests, other.digests)


class TestSingleFlipDetectable:
    @given(
        n_pages=st.integers(min_value=1, max_value=512),
        page=st.integers(min_value=0, max_value=511),
        old=st.integers(min_value=0, max_value=2**64 - 1),
        delta=st.integers(min_value=1, max_value=2**64 - 1),
    )
    @settings(max_examples=200, derandomize=True)
    def test_any_single_flip_changes_checksum(
        self, n_pages, page, old, delta
    ):
        # The detectability invariant every layer above relies on: a
        # version flip of any magnitude, anywhere, changes that page's
        # checksum — so scrubs and restores can always see the damage.
        page %= n_pages
        versions = np.full(n_pages, np.uint64(old), dtype=np.uint64)
        before = checksum_pages(versions)
        flipped = versions.copy()
        # Array op, not scalar: uint64 addition wraps silently.
        flipped[page : page + 1] += np.uint64(delta)
        if flipped[page] == versions[page]:
            return  # delta wrapped to identity: not a flip
        after = checksum_pages(flipped)
        assert after[page] != before[page]
        unchanged = np.delete(after, page)
        assert np.array_equal(unchanged, np.delete(before, page))

    @given(
        page=st.integers(min_value=0, max_value=1023),
        delta=st.integers(min_value=1, max_value=2**32),
    )
    @settings(max_examples=100, derandomize=True)
    def test_any_single_flip_fails_exactly_one_chunk(self, page, delta):
        s = snap(1024)
        index = ChunkIndex.for_snapshot(s, 256)
        s.write_pages([page], s.read_pages([page]) + np.uint64(delta))
        assert index.bad_chunks(s).tolist() == [page // 256]
