"""The two-array single-tier snapshot, kept as the reference for the
image-plus-ledger one.

:class:`TwoArraySnapshot` is :class:`repro.vm.snapshot.SingleTierSnapshot`
as it was before copies shared one captured image: it holds a full
per-page version array and a full trusted-checksum array, every write
lands in the version array in place, and :meth:`copy` duplicates both.
It offers the same ``read_pages``/``write_pages`` pair, so a
:class:`~repro.faults.FaultInjector` and a
:class:`~repro.durability.ChunkIndex` drive it unchanged.  Every
bit-identity property compares the ledger snapshot against this class;
nothing in ``src/`` runs it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SnapshotCorruptionError, SnapshotError
from repro.vm.snapshot import checksum_pages, format_page_indices

__all__ = ["TwoArraySnapshot"]


class TwoArraySnapshot:
    """A snapshot file as a dense version array plus its checksums."""

    def __init__(
        self,
        n_pages: int,
        page_versions: np.ndarray,
        label: str = "",
        page_checksums: np.ndarray | None = None,
    ) -> None:
        versions = np.asarray(page_versions, dtype=np.uint64)
        if versions.shape != (n_pages,):
            raise SnapshotError("version array does not match guest size")
        self.n_pages = n_pages
        self.label = label
        self.page_versions = versions
        self.page_checksums = (
            checksum_pages(versions) if page_checksums is None else page_checksums
        )

    def read_pages(self, pages) -> np.ndarray:
        return self.page_versions[np.asarray(pages, dtype=np.int64)]

    def write_pages(self, pages, versions) -> None:
        self.page_versions[np.asarray(pages, dtype=np.int64)] = versions

    def corrupt_pages(self) -> np.ndarray:
        return np.flatnonzero(
            checksum_pages(self.page_versions) != self.page_checksums
        )

    def verify(self) -> None:
        corrupt = self.corrupt_pages()
        if corrupt.size:
            raise SnapshotCorruptionError(
                f"snapshot {self.label!r}: {corrupt.size} of {self.n_pages} "
                "pages fail checksum verification "
                f"(pages {format_page_indices(corrupt)})",
                corrupt_pages=corrupt,
            )

    def copy(self) -> "TwoArraySnapshot":
        return TwoArraySnapshot(
            self.n_pages,
            self.page_versions.copy(),
            self.label,
            page_checksums=self.page_checksums.copy(),
        )
