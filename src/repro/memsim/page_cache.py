"""Host page-cache model.

The evaluation drops the host page cache between invocations (Section VI-A)
so that every run pays real storage accesses; each restored VM starts with
an empty cache, which models that.  The cache matters for two pathologies
the paper calls out:

* ``mincore()``-based working-set capture (FaaSnap) counts *prefetched* pages
  that were never touched by the guest, inflating the working set
  (Section III-C) — the cache tracks which resident pages were populated by
  readahead rather than by demand faults.
* Repeated invocations without a drop serve demand loads as minor faults.
"""

from __future__ import annotations

import numpy as np

from ..errors import AddressSpaceError

__all__ = ["HostPageCache"]


class HostPageCache:
    """Per-snapshot-file host page cache at page granularity.

    The cache is indexed by page offset within one backing file.  Pages can
    be resident for two reasons: a demand fault brought them in, or kernel
    readahead prefetched them alongside a faulted neighbour.
    """

    def __init__(self, n_pages: int, *, readahead_pages: int = 8) -> None:
        if n_pages <= 0:
            raise AddressSpaceError("page cache must cover at least one page")
        if readahead_pages < 0:
            raise AddressSpaceError("readahead window must be non-negative")
        self.n_pages = int(n_pages)
        self.readahead_pages = int(readahead_pages)
        self._resident = np.zeros(self.n_pages, dtype=bool)
        self._prefetched = np.zeros(self.n_pages, dtype=bool)

    # -- queries -----------------------------------------------------------

    def resident_mask(self) -> np.ndarray:
        """Copy of the full residency bitmap (what ``mincore()`` reports)."""
        return self._resident.copy()

    def demand_loaded_mask(self) -> np.ndarray:
        """Residency bitmap excluding readahead-only pages (true touches)."""
        return self._resident & ~self._prefetched

    # -- mutations ----------------------------------------------------------

    def fault_in(self, pages: np.ndarray) -> int:
        """Demand-fault ``pages`` in; apply readahead around each miss.

        Returns the number of pages that actually missed (i.e. required
        device I/O).  Faults are processed in address order, so within one
        batch readahead already covers the next ``readahead_pages`` pages
        after each miss — a sequential sweep of N pages costs roughly
        ``N / (readahead_pages + 1)`` misses, as on a real kernel.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size > 1 and not bool(np.all(pages[1:] > pages[:-1])):
            pages = np.unique(pages)
        self._check(pages)
        candidates = pages[~self._resident[pages]]
        misses = 0
        if self.readahead_pages and candidates.size:
            stride = self.readahead_pages + 1
            # Process contiguous runs of candidate pages; coverage carries
            # across small gaps via ``covered_until``.  The miss count is a
            # pure scalar recurrence over runs; the readahead tail windows
            # it discovers are pairwise disjoint and are never read back
            # within this call, so their cache updates are collected here
            # and applied in one vectorized pass below — identical end
            # state to applying them run by run.
            boundaries = np.flatnonzero(np.diff(candidates) > 1) + 1
            run_starts = candidates[
                np.concatenate([[0], boundaries])
            ].tolist()
            run_ends = (
                candidates[
                    np.concatenate([boundaries - 1, [candidates.size - 1]])
                ]
                + 1
            ).tolist()
            covered_until = -1
            n_pages = self.n_pages
            win_lo: list[int] = []
            win_hi: list[int] = []
            for run_start, run_end in zip(run_starts, run_ends):
                first_miss = (
                    run_start if run_start > covered_until else covered_until
                )
                if first_miss >= run_end:
                    continue  # the whole run was prefetched earlier
                k = -(-(run_end - first_miss) // stride)  # ceil division
                misses += k
                covered_until = first_miss + k * stride
                # Pages past the run's end covered by the last readahead.
                tail_end = (
                    covered_until if covered_until < n_pages else n_pages
                )
                if tail_end > run_end:
                    win_lo.append(run_end)
                    win_hi.append(tail_end)
            if win_lo:
                lo = np.asarray(win_lo, dtype=np.int64)
                lengths = np.asarray(win_hi, dtype=np.int64) - lo
                # Concatenated aranges over all windows without a Python
                # loop: repeat each window start, add per-window offsets.
                cum = np.cumsum(lengths)
                offsets = np.arange(cum[-1]) - np.repeat(
                    cum - lengths, lengths
                )
                window = np.repeat(lo, lengths) + offsets
                newly = window[~self._resident[window]]
                self._resident[newly] = True
                self._prefetched[newly] = True
        else:
            misses = int(candidates.size)
        self._resident[candidates] = True
        # A demand-faulted page is a genuine touch even if readahead got
        # there first: clear the prefetched flag for all faulted pages.
        self._prefetched[pages] = False
        return misses

    # -- helpers ------------------------------------------------------------

    def _check(self, pages: np.ndarray) -> None:
        if pages.size and (pages.min() < 0 or pages.max() >= self.n_pages):
            raise AddressSpaceError(
                f"page index outside cache of {self.n_pages} pages"
            )
