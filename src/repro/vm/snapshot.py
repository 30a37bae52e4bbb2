"""Snapshot objects: single-tier, REAP, and tiered (TOSS).

Snapshots capture a microVM's guest memory.  We model contents as a
per-page ``uint64`` version array — enough to verify restore correctness
(every restored page must carry the captured version) without storing real
bytes.  Each snapshot kind also knows its simulated creation cost, and
carries per-page checksums so at-rest corruption (real or injected by
:mod:`repro.faults`) is detectable at restore time via :meth:`verify`.

A single-tier snapshot is a read-only captured *image* plus a sparse
*write ledger*: the sorted indices of the pages written since capture and
their current versions.  Every :meth:`SingleTierSnapshot.copy` — the
tiered files, each replica on another host — shares the image and starts
from its source's ledger, so a copy costs its ledger, not the guest size,
and damage written to one copy never reaches its twin.  The trusted
checksums are the image's, so only a ledger page can fail verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import config
from ..errors import SnapshotCorruptionError, SnapshotError
from .layout import MemoryLayout

__all__ = [
    "checksum_pages",
    "format_page_indices",
    "SingleTierSnapshot",
    "ReapSnapshot",
    "TieredSnapshot",
]

_CHECKSUM_MULT = np.uint64(0x9E3779B97F4A7C15)
_CHECKSUM_SHIFT = np.uint64(7)

_MAX_LISTED_PAGES = 10


def format_page_indices(pages: np.ndarray) -> str:
    """A bounded rendering of a page-index array for error messages.

    Lists at most ``_MAX_LISTED_PAGES`` indices and summarises the rest,
    so an error over a million-page corruption stays a one-line message
    instead of a megabyte repr; the caller keeps the full array on the
    exception.
    """
    shown = ", ".join(str(int(p)) for p in pages[:_MAX_LISTED_PAGES])
    if pages.size > _MAX_LISTED_PAGES:
        return f"{shown}, ... ({pages.size - _MAX_LISTED_PAGES} more)"
    return shown


def checksum_pages(page_versions: np.ndarray) -> np.ndarray:
    """Per-page checksum of a version array (a cheap 64-bit mix).

    Stands in for the per-page CRC a real snapshot file would carry: any
    version flip changes the checksum, and recomputation is vectorised.
    """
    v = np.asarray(page_versions, dtype=np.uint64)
    out = v * _CHECKSUM_MULT
    out ^= v >> _CHECKSUM_SHIFT
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


_NO_PAGES = _frozen(np.empty(0, dtype=np.int64))
_NO_VERSIONS = _frozen(np.empty(0, dtype=np.uint64))


class SingleTierSnapshot:
    """A vanilla Firecracker snapshot: VM state plus one memory file.

    The memory file lives on the SSD and is memory-mapped at restore, with
    guest pages loaded on demand (Section II-A).

    The snapshot owns ``page_versions`` from construction on: the array
    becomes its read-only captured image, so pass a copy of any array
    that is still written elsewhere.  Content changes only through
    :meth:`write_pages`.
    """

    __slots__ = ("n_pages", "label", "_image", "_pages", "_versions")

    def __init__(
        self, n_pages: int, page_versions: np.ndarray, label: str = ""
    ) -> None:
        image = np.asarray(page_versions, dtype=np.uint64)
        if image.shape != (n_pages,):
            raise SnapshotError(
                f"version array shape {image.shape} does not match "
                f"{n_pages} pages"
            )
        self.n_pages = n_pages
        self.label = label
        self._image = _frozen(image)
        # The write ledger: sorted page indices and their current
        # versions, each differing from the image.  Both arrays are
        # read-only and replaced whole on a write, so copies share them.
        self._pages = _NO_PAGES
        self._versions = _NO_VERSIONS

    @property
    def page_versions(self) -> np.ndarray:
        """Current per-page versions (read-only).

        The image itself while the ledger is empty; otherwise a fresh
        array with the ledger applied."""
        if self._pages.size == 0:
            return self._image
        versions = self._image.copy()
        versions[self._pages] = self._versions
        return _frozen(versions)

    @property
    def page_checksums(self) -> np.ndarray:
        """The captured (trusted) per-page checksums (read-only)."""
        return _frozen(checksum_pages(self._image))

    def _indices(self, pages) -> np.ndarray:
        pages = np.asarray(pages, dtype=np.int64).reshape(-1)
        if pages.size and (pages.min() < 0 or pages.max() >= self.n_pages):
            raise SnapshotError(
                f"snapshot {self.label!r}: page index outside "
                f"0..{self.n_pages - 1}"
            )
        return pages

    def read_pages(self, pages) -> np.ndarray:
        """Current versions of ``pages`` (a fresh array)."""
        pages = self._indices(pages)
        versions = self._image[pages]
        if self._pages.size:
            at = np.searchsorted(self._pages, pages)
            np.minimum(at, self._pages.size - 1, out=at)
            hit = self._pages[at] == pages
            versions[hit] = self._versions[at[hit]]
        return versions

    def write_pages(self, pages, versions) -> None:
        """Set ``pages`` to ``versions`` in this copy only.

        The one writer of snapshot content: at-rest damage and chunk
        repair both land here.  As with a NumPy fancy assignment, the
        last write to a repeated page wins.  A page written back to its
        captured version leaves the ledger.
        """
        pages = self._indices(pages)
        versions = np.broadcast_to(
            np.asarray(versions, dtype=np.uint64), pages.shape
        )
        kept = ~np.isin(self._pages, pages)
        merged_pages = np.concatenate((self._pages[kept], pages))
        merged_versions = np.concatenate((self._versions[kept], versions))
        order = np.argsort(merged_pages, kind="stable")
        merged_pages = merged_pages[order]
        merged_versions = merged_versions[order]
        keep = merged_versions != self._image[merged_pages]
        keep[:-1] &= merged_pages[1:] != merged_pages[:-1]
        self._pages = _frozen(merged_pages[keep])
        self._versions = _frozen(merged_versions[keep])

    def corrupt_pages(self) -> np.ndarray:
        """Indices of pages whose contents no longer match their checksum.

        A page never written still holds its captured version, so only
        ledger pages are checked; the result is sorted."""
        bad = checksum_pages(self._versions) != checksum_pages(
            self._image[self._pages]
        )
        return self._pages[bad]

    def verify(self) -> None:
        """Check every page against its captured checksum.

        Raises :class:`~repro.errors.SnapshotCorruptionError` when any
        page fails; a clean snapshot returns silently.
        """
        corrupt = self.corrupt_pages()
        if corrupt.size:
            raise SnapshotCorruptionError(
                f"snapshot {self.label!r}: {corrupt.size} of {self.n_pages} "
                "pages fail checksum verification "
                f"(pages {format_page_indices(corrupt)})",
                corrupt_pages=corrupt,
            )

    def copy(self) -> "SingleTierSnapshot":
        """An independent copy: the shared image and this copy's ledger.

        Writes to either copy land in its own ledger only."""
        twin = SingleTierSnapshot(self.n_pages, self._image, self.label)
        twin._pages = self._pages
        twin._versions = self._versions
        return twin


@dataclass(frozen=True)
class ReapSnapshot:
    """A REAP snapshot: the base snapshot plus a working-set file.

    REAP records the pages touched during the *recording* invocation
    (captured with ``userfaultfd``) into a compact WS file; restore
    prefetches exactly those pages and installs their page-table entries
    (Section VI-B).  ``snapshot_input`` remembers which input produced the
    working set — Figure 3/7/8 sweep it against the execution input.
    """

    base: SingleTierSnapshot
    ws_mask: np.ndarray
    snapshot_input: int = -1

    def __post_init__(self) -> None:
        mask = np.asarray(self.ws_mask, dtype=bool)
        if mask.shape != (self.base.n_pages,):
            raise SnapshotError("working-set mask does not match guest size")
        object.__setattr__(self, "ws_mask", mask)

    @property
    def n_pages(self) -> int:
        """Guest pages covered by the base snapshot."""
        return self.base.n_pages

    @property
    def ws_pages(self) -> int:
        """Working-set size in pages."""
        return int(self.ws_mask.sum())

    @property
    def ws_bytes(self) -> int:
        """Working-set file size in bytes."""
        return self.ws_pages * config.PAGE_SIZE

    def verify(self) -> None:
        """Checksum-verify the base memory file (raises on corruption)."""
        self.base.verify()


@dataclass(frozen=True)
class TieredSnapshot:
    """A TOSS tiered snapshot: two per-tier memory files plus the layout.

    The slow-tier file lives (DAX-mapped) in persistent memory, so its
    pages need no storage I/O at restore; the fast-tier file is also kept
    in the slow tier and its pages are *copied* into DRAM on first touch.
    ``expected_slowdown`` is the analysis-predicted slowdown of this
    placement (used by pricing and re-profiling).
    """

    base: SingleTierSnapshot
    layout: MemoryLayout
    expected_slowdown: float = 1.0
    source_inputs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.layout.n_pages != self.base.n_pages:
            raise SnapshotError(
                f"layout covers {self.layout.n_pages} pages, snapshot has "
                f"{self.base.n_pages}"
            )
        if self.expected_slowdown < 1.0:
            raise SnapshotError("expected slowdown cannot be below 1.0")

    @property
    def n_pages(self) -> int:
        """Guest pages covered."""
        return self.base.n_pages

    @property
    def slow_fraction(self) -> float:
        """Fraction of guest memory in the slow tier (Table II)."""
        return self.layout.slow_fraction

    def placement(self) -> np.ndarray:
        """Dense per-page tier array."""
        return self.layout.placement()

    def verify(self) -> None:
        """Checksum-verify the per-tier memory files (raises on corruption)."""
        self.base.verify()
