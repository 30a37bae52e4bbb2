"""Guest-OS allocation model.

Section III-B observes that invocations with the *same* input can produce
different memory access patterns because the guest kernel does not allocate
pages deterministically.  :class:`GuestAllocator` models that: a function's
logical working-set pages land in guest frames at a jittered base offset,
and a small fraction of pages scatters to unrelated frames (slab reuse,
heap randomisation).  Profilers therefore never see two identical layouts,
which is what forces TOSS to profile across multiple invocations.
"""

from __future__ import annotations

import numpy as np

from ..domains import CountDomain, RealDomain, check_value
from ..errors import AddressSpaceError, ConfigError

__all__ = ["GuestAllocator"]


class GuestAllocator:
    """Maps logical working-set pages to guest physical frames.

    Parameters
    ----------
    n_pages:
        Guest memory size in pages.
    base_page:
        Nominal first frame of the working-set block (the guest kernel,
        runtime and heap live from here up).
    jitter_pages:
        Maximum +/- shift of the block start between invocations.
    scatter_fraction:
        Fraction of working-set pages that land outside the contiguous
        block (uniformly over the remaining frames).
    """

    def __init__(
        self,
        n_pages: int,
        *,
        base_page: int = 0,
        jitter_pages: int = 0,
        scatter_fraction: float = 0.0,
    ) -> None:
        check_value(CountDomain(1), n_pages, "n_pages", AddressSpaceError)
        check_value(CountDomain(0), base_page, "base_page", AddressSpaceError)
        if base_page >= n_pages:
            raise AddressSpaceError("base_page outside guest memory")
        # The domains FunctionModel declares for its allocator knobs.
        check_value(CountDomain(0), jitter_pages, "jitter_pages", ConfigError)
        check_value(
            RealDomain(0.0, 1.0, lo_open=False),
            scatter_fraction,
            "scatter_fraction",
            ConfigError,
        )
        self.n_pages = int(n_pages)
        self.base_page = int(base_page)
        self.jitter_pages = int(jitter_pages)
        self.scatter_fraction = float(scatter_fraction)

    def place(self, ws_pages: int, rng: np.random.Generator) -> np.ndarray:
        """Return an injective map logical page -> guest frame.

        The result is an ``int64`` array of length ``ws_pages``; entry ``i``
        is the guest frame holding logical page ``i``.  Raises if the
        working set cannot fit in the guest.
        """
        if ws_pages <= 0:
            raise ConfigError("ws_pages must be positive")
        if ws_pages > self.n_pages:
            raise AddressSpaceError(
                f"working set of {ws_pages} pages exceeds guest of "
                f"{self.n_pages} pages"
            )
        max_base = self.n_pages - ws_pages
        if max_base < 0:
            raise AddressSpaceError("working set does not fit")
        lo = max(0, self.base_page - self.jitter_pages)
        hi = min(max_base, self.base_page + self.jitter_pages)
        if lo > max_base:
            lo = max_base
        base = int(rng.integers(lo, hi + 1)) if hi > lo else lo

        frames = base + np.arange(ws_pages, dtype=np.int64)
        n_scatter = int(round(self.scatter_fraction * ws_pages))
        if n_scatter:
            # Scattered pages land near the block, not across the whole
            # guest: the buddy allocator reuses the same physical area, so
            # truly untouched memory stays untouched across invocations.
            slack = max(self.jitter_pages, ws_pages // 10)
            lo_out = max(0, base - slack)
            hi_out = min(self.n_pages, base + ws_pages + slack)
            outside = np.concatenate(
                [
                    np.arange(lo_out, base, dtype=np.int64),
                    np.arange(base + ws_pages, hi_out, dtype=np.int64),
                ]
            )
            n_scatter = min(n_scatter, outside.size)
            if n_scatter:
                victims = rng.choice(ws_pages, size=n_scatter, replace=False)
                targets = rng.choice(outside, size=n_scatter, replace=False)
                frames[victims] = targets
        return frames

    def remap_histogram(
        self, ws_histogram: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Place a logical working-set histogram into guest frames.

        Returns ``(pages, counts)`` sorted by guest frame — the sparse form
        :class:`~repro.trace.events.AccessEpoch` expects.  Zero-count logical
        pages are dropped (they consume no frame accesses).
        """
        hist = np.asarray(ws_histogram, dtype=np.int64)
        if hist.ndim != 1:
            raise ConfigError("histogram must be 1-D")
        frames = self.place(hist.size, rng)
        nz = hist > 0
        pages = frames[nz]
        counts = hist[nz]
        order = np.argsort(pages, kind="stable")
        return pages[order], counts[order]
