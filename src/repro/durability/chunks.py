"""Content-addressed chunk index over snapshot page checksums.

A snapshot already carries one checksum per page
(:func:`repro.vm.snapshot.checksum_pages`).  The chunk index folds those
into one digest per fixed-size chunk — position-salted, so a swap of two
pages inside a chunk changes the digest, not just a version flip.  The
digests are pure functions of content: every copy of the same snapshot
(replicas on other hosts, adopted prepared state) shares the same digest
array, which is what makes them *content addresses* — a chunk can be
fetched from any copy whose digest matches, and two functions with equal
digests hold identical pages (the dedup/delta groundwork).

Verification against the index localises corruption: a bad page fails
exactly its chunk, so repair moves ``chunk_pages`` pages instead of
rewriting the whole snapshot file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..errors import ConfigError, SnapshotError
from ..vm.snapshot import SingleTierSnapshot, checksum_pages

__all__ = ["DEFAULT_CHUNK_PAGES", "ChunkIndex", "chunk_digests", "content_key"]

DEFAULT_CHUNK_PAGES = 256
"""Default chunk size (1 MiB of 4 KiB pages): the repair granularity."""

_POSITION_SALT = np.uint64(0xBF58476D1CE4E5B9)
"""Odd multiplier salting each page's within-chunk position into its
contribution, so the XOR fold is order-sensitive inside a chunk."""

_CHUNK_MIX = np.uint64(0x94D049BB133111EB)
"""Odd multiplier applied *after* the position salt.  Without it the XOR
fold would see ``(xor of checksums) ^ (xor of position salts)`` — the
positions distribute out as a constant and swapped pages go undetected.
Multiplying each salted term couples position and content non-linearly,
and stays bijective per term (odd multiplier), so a single page flip
still always changes its chunk's digest."""


def chunk_digests(
    page_checksums: npt.NDArray[np.uint64], chunk_pages: int
) -> npt.NDArray[np.uint64]:
    """Fold per-page checksums into one position-salted digest per chunk.

    Each page contributes ``(checksum ^ (position * salt)) * mix``
    (position = its index within the chunk) and a chunk's digest is the
    XOR of its contributions — vectorised with one ``reduceat`` pass.
    The last chunk may be short.
    """
    if chunk_pages < 1:
        raise ConfigError("chunk_pages must be >= 1")
    checksums = np.asarray(page_checksums, dtype=np.uint64)
    n = checksums.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    # One chunk's position salts, tiled to the page count, then mixed in
    # place: the only page-length array is ``salted`` itself.
    salts = np.arange(min(chunk_pages, n), dtype=np.uint64) * _POSITION_SALT
    salted = np.resize(salts, n)
    salted ^= checksums
    salted *= _CHUNK_MIX
    starts = np.arange(0, n, chunk_pages)
    return np.bitwise_xor.reduceat(salted, starts)


def content_key(digests: npt.NDArray[np.uint64]) -> int:
    """Fold a digest array into one 64-bit content address.

    Position-salted like :func:`chunk_digests`, one level up: equal keys
    mean equal chunk sequences, so whole-snapshot identity can be
    compared across hosts without shipping arrays (the cross-host dedup
    primitive)."""
    d = np.asarray(digests, dtype=np.uint64)
    if d.shape[0] == 0:
        return 0
    positions = np.arange(d.shape[0], dtype=np.uint64)
    salted = (d ^ (positions * _POSITION_SALT)) * _CHUNK_MIX
    return int(np.bitwise_xor.reduce(salted))


@dataclass(frozen=True)
class ChunkIndex:
    """The trusted chunk digests of one snapshot's content.

    Built from the snapshot's *captured* checksums (``page_checksums``,
    written at snapshot time), not from its current page versions — the
    index is the reference that at-rest damage is detected against.  All
    copies of the same snapshot share one index.
    """

    n_pages: int
    chunk_pages: int
    digests: npt.NDArray[np.uint64]

    @classmethod
    def for_snapshot(
        cls, snapshot: SingleTierSnapshot, chunk_pages: int = DEFAULT_CHUNK_PAGES
    ) -> "ChunkIndex":
        """Index a snapshot's captured (trusted) checksums."""
        return cls(
            n_pages=snapshot.n_pages,
            chunk_pages=chunk_pages,
            digests=chunk_digests(snapshot.page_checksums, chunk_pages),
        )

    @property
    def n_chunks(self) -> int:
        """Number of chunks (the last may be short)."""
        return int(self.digests.shape[0])

    @property
    def key(self) -> int:
        """The snapshot's 64-bit content address."""
        return content_key(self.digests)

    def chunk_bounds(self, chunk: int) -> tuple[int, int]:
        """The page range ``[start, end)`` of one chunk."""
        if not 0 <= chunk < self.n_chunks:
            raise ConfigError(
                f"chunk {chunk} outside 0..{self.n_chunks - 1}"
            )
        start = chunk * self.chunk_pages
        return start, min(start + self.chunk_pages, self.n_pages)

    def _check(self, snapshot: SingleTierSnapshot) -> None:
        if snapshot.n_pages != self.n_pages:
            raise SnapshotError(
                f"chunk index covers {self.n_pages} pages, snapshot "
                f"{snapshot.label!r} has {snapshot.n_pages}"
            )

    def bad_chunks(
        self, snapshot: SingleTierSnapshot
    ) -> npt.NDArray[np.int64]:
        """Chunks whose current content no longer matches the index.

        Recomputes digests from the copy's live page versions (what a
        scrub read sees) and compares against the trusted digests;
        corruption anywhere in a chunk fails exactly that chunk.
        """
        self._check(snapshot)
        live = chunk_digests(
            checksum_pages(snapshot.page_versions), self.chunk_pages
        )
        return np.flatnonzero(live != self.digests).astype(np.int64)

    def chunk_clean(self, snapshot: SingleTierSnapshot, chunk: int) -> bool:
        """Whether one chunk of a copy matches its trusted digest."""
        self._check(snapshot)
        start, end = self.chunk_bounds(chunk)
        versions = snapshot.read_pages(np.arange(start, end))
        positions = np.arange(end - start, dtype=np.uint64)
        salted = (
            checksum_pages(versions) ^ (positions * _POSITION_SALT)
        ) * _CHUNK_MIX
        live = np.bitwise_xor.reduce(salted)
        return bool(live == self.digests[chunk])

    def repair_chunk(
        self,
        damaged: SingleTierSnapshot,
        source: SingleTierSnapshot,
        chunk: int,
    ) -> bool:
        """Overwrite one chunk of ``damaged`` from a clean ``source`` copy.

        The replica-fetch rung of the repair ladder: verifies the source
        chunk against the shared digest first (a rotted replica must not
        propagate its damage), then writes the page range into
        ``damaged``.  Returns True when the repair landed, False when the
        source chunk is itself bad.
        """
        self._check(damaged)
        self._check(source)
        if not self.chunk_clean(source, chunk):
            return False
        pages = np.arange(*self.chunk_bounds(chunk))
        damaged.write_pages(pages, source.read_pages(pages))
        return True
