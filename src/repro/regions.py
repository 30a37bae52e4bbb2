"""Contiguous memory regions and region-list algebra.

Regions — ``(start_page, n_pages)`` spans of guest memory, optionally
annotated with an attribute — are the common currency of the whole system:
DAMON reports access counts per region, TOSS's analysis packs regions into
bins, the tiered snapshot layout is a region list, and Firecracker restores
one memory mapping per region (which is why Section V-F merges adjacent
regions: fewer mappings, faster setup).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import AddressSpaceError, LayoutError

__all__ = [
    "Region",
    "regions_from_values",
    "regions_to_page_values",
    "merge_adjacent",
    "validate_partition",
    "split_region",
]


@dataclass(frozen=True, order=True)
class Region:
    """A contiguous page span with an attribute value.

    ``value`` is interpretation-dependent: an access count for profiler
    output, a tier id for layout entries, a bin id for packed bins.
    Ordering is by ``start_page`` so sorted region lists read left to right
    through the address space.
    """

    start_page: int
    n_pages: int
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.start_page < 0:
            raise AddressSpaceError("region start must be non-negative")
        if self.n_pages <= 0:
            raise AddressSpaceError("region must span at least one page")

    @property
    def end_page(self) -> int:
        """One past the last page of the region."""
        return self.start_page + self.n_pages

    def with_value(self, value: float) -> "Region":
        """Copy of the region with a different attribute value."""
        return replace(self, value=value)


def regions_from_values(values: np.ndarray) -> list[Region]:
    """Run-length encode a dense per-page value array into regions.

    Adjacent pages with exactly equal values collapse into one region whose
    ``value`` is that shared value.  The returned regions partition
    ``[0, len(values))``.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise AddressSpaceError("values must be a non-empty 1-D array")
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [values.size]])
    return [
        Region(int(s), int(e - s), float(values[s])) for s, e in zip(starts, ends)
    ]


def regions_to_page_values(
    regions: Sequence[Region], n_pages: int, *, fill: float = 0.0
) -> np.ndarray:
    """Expand a region list back to a dense per-page value array.

    Regions may not overlap; pages not covered get ``fill``.
    """
    out = np.full(n_pages, fill, dtype=np.float64)
    covered = np.zeros(n_pages, dtype=bool)
    for region in regions:
        if region.end_page > n_pages:
            raise AddressSpaceError(
                f"region [{region.start_page}, {region.end_page}) exceeds "
                f"{n_pages} pages"
            )
        if covered[region.start_page : region.end_page].any():
            raise LayoutError("regions overlap")
        covered[region.start_page : region.end_page] = True
        out[region.start_page : region.end_page] = region.value
    return out


def merge_adjacent(
    regions: Iterable[Region],
    *,
    tolerance: float = 0.0,
    weighted: bool = True,
    preserve_zero: bool = False,
) -> list[Region]:
    """Merge touching regions whose values differ by at most ``tolerance``.

    This is Section V-F's merging: with ``tolerance=0`` it merges regions
    with identical attributes (bins merging); with the paper's access-count
    threshold (<100) it merges similar-count neighbours.  When ``weighted``
    the merged value is the page-weighted mean of the parts (an access
    *density* stays meaningful); otherwise the left value wins.  With
    ``preserve_zero`` a zero-valued region never merges with a non-zero
    one, keeping the zero-accessed set intact for Section V-C's first
    offloading step.
    """
    merged: list[Region] = []
    for region in sorted(regions):
        if merged:
            last = merged[-1]
            if region.start_page < last.end_page:
                raise LayoutError("regions overlap")
            zero_barrier = preserve_zero and (
                (last.value == 0.0) != (region.value == 0.0)
            )
            if (
                region.start_page == last.end_page
                and not zero_barrier
                and abs(region.value - last.value) <= tolerance
            ):
                if weighted:
                    total = last.n_pages + region.n_pages
                    value = (
                        last.value * last.n_pages + region.value * region.n_pages
                    ) / total
                else:
                    value = last.value
                merged[-1] = Region(last.start_page, last.n_pages + region.n_pages, value)
                continue
        merged.append(region)
    return merged


def validate_partition(regions: Sequence[Region], n_pages: int) -> None:
    """Assert that ``regions`` exactly tile ``[0, n_pages)``.

    Raises :class:`LayoutError` on gaps, overlaps, or out-of-range spans.
    """
    ordered = sorted(regions)
    expected = 0
    for region in ordered:
        if region.start_page != expected:
            raise LayoutError(
                f"partition gap/overlap at page {expected} "
                f"(next region starts at {region.start_page})"
            )
        expected = region.end_page
    if expected != n_pages:
        raise LayoutError(
            f"partition covers {expected} pages, guest has {n_pages}"
        )


def split_region(region: Region, at_page: int) -> tuple[Region, Region]:
    """Split a region in two at an absolute page index (both non-empty)."""
    if not (region.start_page < at_page < region.end_page):
        raise AddressSpaceError(
            f"split point {at_page} not strictly inside "
            f"[{region.start_page}, {region.end_page})"
        )
    left = Region(region.start_page, at_page - region.start_page, region.value)
    right = Region(at_page, region.end_page - at_page, region.value)
    return left, right
