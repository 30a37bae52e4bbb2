"""Access-trace data model.

The simulator never replays individual loads (a 1 GB guest would need
billions); instead each invocation is a handful of *epochs*, each holding a
sparse histogram of LLC-miss demand loads per page.  That is exactly the
granularity DAMON aggregates at, and enough to compute execution time under
any page placement: ``stall = sum(counts * latency(tier(page)))``.

A trace stores every access exactly once, in one flat read-only column
pair (``pages``/``counts``) segmented by ``epoch_ptr``; each epoch's
arrays are views into those columns, so every consumer — the execute
engine, DAMON, the trace cache — reads the same memory.

Both columns are ``int32``: the largest guest has 262,144 pages and the
largest invocation 3.2e7 accesses, so every value fits with room to
spare, and a cached trace keeps 8 bytes per page-epoch instead of 16.
A page index or count that does not fit, or counts whose sum does not,
raise a typed error instead of wrapping; so every per-epoch or per-tier
sum of a trace's counts is exact in int32 too.  ``epoch_ptr`` stays
``int64``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import AddressSpaceError, ConfigError, ReproError

__all__ = ["AccessEpoch", "InvocationTrace", "int32_column"]

_INT32 = np.iinfo(np.int32)


def int32_column(
    values: np.ndarray, field: str, error: type[ReproError]
) -> np.ndarray:
    """``values`` as an ``int32`` array, raising ``error`` on overflow.

    A value outside the int32 range would wrap silently in the cast, and
    a fractional one would be truncated, so both are rejected first,
    naming ``field`` (non-integers with :class:`ConfigError`).  An int32
    array is returned as it is (no copy).
    """
    arr = np.asarray(values)
    if arr.dtype == np.int32 or not arr.size:
        return arr.astype(np.int32, copy=False)
    if arr.dtype.kind not in "iu":
        raise ConfigError(f"trace {field} must be integers, not {arr.dtype}")
    lo, hi = arr.min(), arr.max()
    if lo < _INT32.min or hi > _INT32.max:
        bad = int(hi if hi > _INT32.max else lo)
        raise error(f"trace {field} value {bad} does not fit a 32-bit column")
    return arr.astype(np.int32)


@dataclass(frozen=True)
class AccessEpoch:
    """One time slice of an invocation.

    Attributes
    ----------
    cpu_time_s:
        Pure compute time of the slice (cycles not stalled on memory).
    pages:
        Sorted, unique guest-page indices touched during the slice
        (stored as ``int32``).
    counts:
        LLC-miss demand loads per page in ``pages`` (same length, stored
        as ``int32``).
    random_fraction:
        Fraction of the slice's accesses that stride unpredictably; slow
        tiers penalise random access (Section V-C).
    store_fraction:
        Fraction of the slice's accesses that are stores; the slow tier's
        store latency and write throughput are much worse than its reads.
    """

    cpu_time_s: float
    pages: np.ndarray
    counts: np.ndarray
    random_fraction: float = 0.0
    store_fraction: float = 0.0

    def __post_init__(self) -> None:
        pages = int32_column(self.pages, "pages", AddressSpaceError)
        counts = int32_column(self.counts, "counts", ConfigError)
        if pages.shape != counts.shape or pages.ndim != 1:
            raise ConfigError("pages and counts must be 1-D arrays of equal length")
        if pages.size:
            if pages.min() < 0:
                raise AddressSpaceError("negative page index in epoch")
            if np.any(np.diff(pages) <= 0):
                raise ConfigError("epoch pages must be strictly increasing")
            if counts.min() <= 0:
                raise ConfigError("epoch counts must be positive")
        self._check_scalars()
        object.__setattr__(self, "pages", pages)
        object.__setattr__(self, "counts", counts)

    def _check_scalars(self) -> None:
        if self.cpu_time_s < 0:
            raise ConfigError("cpu_time_s must be non-negative")
        if not 0.0 <= self.random_fraction <= 1.0:
            raise ConfigError("random_fraction must lie in [0, 1]")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ConfigError("store_fraction must lie in [0, 1]")

    @classmethod
    def _view(
        cls,
        cpu_time_s: float,
        pages: np.ndarray,
        counts: np.ndarray,
        random_fraction: float,
        store_fraction: float,
    ) -> "AccessEpoch":
        """An epoch over a trace's column slices, taken as they are.

        The page/count invariants are the caller's (already checked, or
        true by construction); only the scalar fields are validated.
        """
        epoch = object.__new__(cls)
        object.__setattr__(epoch, "cpu_time_s", cpu_time_s)
        object.__setattr__(epoch, "pages", pages)
        object.__setattr__(epoch, "counts", counts)
        object.__setattr__(epoch, "random_fraction", random_fraction)
        object.__setattr__(epoch, "store_fraction", store_fraction)
        epoch._check_scalars()
        return epoch

    @property
    def total_accesses(self) -> int:
        """Total LLC-miss loads in the slice."""
        return int(self.counts.sum())


@dataclass(frozen=True)
class InvocationTrace:
    """The complete memory behaviour of one function invocation.

    ``n_pages`` is the guest memory size in pages; epochs index into that
    space.  Traces are immutable; derived views are cached.

    Attributes set at construction
    ------------------------------
    pages, counts:
        Every epoch's pages and counts back to back, in epoch order, as
        ``int32``.  The trace owns these columns and they are read-only;
        each epoch's ``pages``/``counts`` are views into them.  A trace
        built from caller arrays copies them once, so later writes to
        those arrays never reach the trace.
    epoch_ptr:
        ``int64`` segment offsets, length ``len(epochs) + 1``: epoch
        ``i`` is ``pages[epoch_ptr[i]:epoch_ptr[i + 1]]``.
    """

    n_pages: int
    epochs: tuple[AccessEpoch, ...]
    label: str = ""
    pages: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    epoch_ptr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        epochs = tuple(self.epochs)
        ptr = np.zeros(len(epochs) + 1, dtype=np.int64)
        np.cumsum([e.pages.size for e in epochs], out=ptr[1:])
        pages = np.empty(int(ptr[-1]), dtype=np.int32)
        counts = np.empty_like(pages)
        for epoch, lo, hi in zip(epochs, ptr[:-1].tolist(), ptr[1:].tolist()):
            pages[lo:hi] = epoch.pages
            counts[lo:hi] = epoch.counts
        self._set_columns(
            pages,
            counts,
            ptr,
            [e.cpu_time_s for e in epochs],
            [e.random_fraction for e in epochs],
            [e.store_fraction for e in epochs],
        )

    @classmethod
    def _from_columns(
        cls,
        n_pages: int,
        pages: np.ndarray,
        counts: np.ndarray,
        epoch_ptr: np.ndarray,
        cpu_time_s: Sequence[float],
        random_fraction: Sequence[float],
        store_fraction: Sequence[float],
        label: str = "",
    ) -> "InvocationTrace":
        """Adopt freshly built columns, without copying int32 ones.

        For synthesis, which fills the columns itself at int32: the trace
        takes ownership (the arrays become read-only), and every segment
        must already hold strictly increasing pages with positive counts.
        Wider columns are range-checked and narrowed to int32.
        """
        trace = object.__new__(cls)
        object.__setattr__(trace, "n_pages", n_pages)
        object.__setattr__(trace, "label", label)
        trace._set_columns(
            int32_column(pages, "pages", AddressSpaceError),
            int32_column(counts, "counts", ConfigError),
            epoch_ptr,
            cpu_time_s,
            random_fraction,
            store_fraction,
        )
        return trace

    def _set_columns(
        self,
        pages: np.ndarray,
        counts: np.ndarray,
        ptr: np.ndarray,
        cpu_time_s: Sequence[float],
        random_fraction: Sequence[float],
        store_fraction: Sequence[float],
    ) -> None:
        if self.n_pages <= 0:
            raise AddressSpaceError("trace must cover at least one page")
        if pages.size and pages.max() >= self.n_pages:
            raise AddressSpaceError(
                f"epoch touches page {int(pages.max())} outside a "
                f"{self.n_pages}-page guest"
            )
        total = int(counts.sum())
        if total > _INT32.max:
            raise ConfigError(
                f"trace counts sum to {total}, which does not fit a 32-bit "
                "column"
            )
        for column in (pages, counts, ptr):
            column.flags.writeable = False
        bounds = ptr.tolist()
        epochs = tuple(
            AccessEpoch._view(cpu, pages[lo:hi], counts[lo:hi], rf, sf)
            for cpu, lo, hi, rf, sf in zip(
                cpu_time_s, bounds[:-1], bounds[1:], random_fraction, store_fraction
            )
        )
        object.__setattr__(self, "epochs", epochs)
        object.__setattr__(self, "pages", pages)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "epoch_ptr", ptr)

    # -- aggregate views ----------------------------------------------------

    @property
    def histogram(self) -> np.ndarray:
        """Dense int64 per-page access-count histogram over the whole
        invocation, built on each call (a trace does not keep it)."""
        hist = np.zeros(self.n_pages, dtype=np.int64)
        np.add.at(hist, self.pages, self.counts)
        return hist

    @cached_property
    def working_set(self) -> np.ndarray:
        """Sorted indices of pages accessed at least once (the paper's WS).

        Every stored count is positive, so these are the columns' unique
        pages.
        """
        return np.unique(self.pages)

    @property
    def total_accesses(self) -> int:
        """Total LLC-miss loads across all epochs."""
        return int(self.counts.sum())

    @property
    def cpu_time_s(self) -> float:
        """Total pure-compute time across all epochs."""
        return sum(e.cpu_time_s for e in self.epochs)

    def nominal_time_s(self, fast_latency_s: float) -> float:
        """End-to-end time with every page in a tier of the given latency
        and no page faults (the all-DRAM warm reference)."""
        return self.cpu_time_s + self.total_accesses * fast_latency_s
