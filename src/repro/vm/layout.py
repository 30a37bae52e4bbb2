"""The tiered memory-layout file (Section V-D).

After TOSS partitions a single-tier snapshot into per-tier files, it writes
a layout file recording, for every memory region: the tier, the offset
within that tier's snapshot file, the offset within guest memory, and the
size.  Restore walks this file and establishes one memory mapping per
entry, so the number of entries directly determines setup time — which is
why Section V-F merges adjacent same-tier regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import config
from ..errors import LayoutError
from ..memsim.tiers import Tier
from ..regions import Region, merge_adjacent, validate_partition

__all__ = ["LayoutEntry", "MemoryLayout"]


@dataclass(frozen=True)
class LayoutEntry:
    """One region of the tiered snapshot.

    Attributes mirror the paper's description verbatim: "This information
    includes the tier, offset within the snapshot file, offset within the
    guest VM memory and the size of the memory region."
    """

    tier: int
    file_offset_page: int
    guest_start_page: int
    n_pages: int

    def __post_init__(self) -> None:
        # Tier ids 0/1 are the fast/slow endpoints; 2+ are the memory
        # system's middle tiers (compressed pools).  The layout file only
        # needs ids to be well-formed — which ids exist is the memory
        # system's business at restore time.
        if not isinstance(self.tier, int) or self.tier < 0:
            raise LayoutError(f"unknown tier id {self.tier}")
        if self.file_offset_page < 0 or self.guest_start_page < 0:
            raise LayoutError("offsets must be non-negative")
        if self.n_pages <= 0:
            raise LayoutError("entry must span at least one page")

class MemoryLayout:
    """An ordered collection of layout entries covering the whole guest."""

    def __init__(self, n_pages: int, entries: Sequence[LayoutEntry]) -> None:
        if n_pages <= 0:
            raise LayoutError("layout must cover at least one page")
        self.n_pages = int(n_pages)
        self.entries = tuple(
            sorted(entries, key=lambda e: e.guest_start_page)
        )
        self._validate()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_placement(cls, placement: np.ndarray) -> "MemoryLayout":
        """Build a layout from a dense per-page tier array.

        Adjacent same-tier pages collapse into one entry (Section V-F's
        bins merging), and file offsets are assigned by copying regions
        serially into each tier's file, exactly as Section V-D describes.
        """
        placement = np.asarray(placement)
        if placement.ndim != 1 or placement.size == 0:
            raise LayoutError("placement must be a non-empty 1-D array")
        regions = merge_adjacent(
            (r for r in _regions_of(placement)), tolerance=0.0, weighted=False
        )
        validate_partition(regions, placement.size)
        next_offset = {int(Tier.FAST): 0, int(Tier.SLOW): 0}
        entries = []
        for region in regions:
            tier = int(region.value)
            offset = next_offset.setdefault(tier, 0)
            entries.append(
                LayoutEntry(
                    tier=tier,
                    file_offset_page=offset,
                    guest_start_page=region.start_page,
                    n_pages=region.n_pages,
                )
            )
            next_offset[tier] = offset + region.n_pages
        return cls(placement.size, entries)

    # -- queries --------------------------------------------------------------

    def placement(self) -> np.ndarray:
        """Dense per-page tier array reconstructed from the entries."""
        # Entries are sorted and validated to tile the guest, so a single
        # repeat reproduces the per-entry slice assignments.
        tiers = np.fromiter(
            (e.tier for e in self.entries),
            dtype=np.uint8,
            count=len(self.entries),
        )
        sizes = np.fromiter(
            (e.n_pages for e in self.entries),
            dtype=np.int64,
            count=len(self.entries),
        )
        return np.repeat(tiers, sizes)

    def pages_in_tier(self, tier: Tier | int) -> int:
        """Total guest pages mapped to a tier."""
        tier = int(tier)
        return sum(e.n_pages for e in self.entries if e.tier == tier)

    @property
    def n_mappings(self) -> int:
        """Memory mappings restore must establish (one per entry)."""
        return len(self.entries)

    @property
    def slow_fraction(self) -> float:
        """Fraction of guest memory placed in the slow tier (Table II)."""
        return self.pages_in_tier(Tier.SLOW) / self.n_pages

    def parse_time_s(self) -> float:
        """Simulated cost of reading the layout file at restore."""
        return self.n_mappings * config.LAYOUT_PARSE_PER_REGION_S

    # -- internal ----------------------------------------------------------------

    def _validate(self) -> None:
        regions = [
            Region(e.guest_start_page, e.n_pages, e.tier) for e in self.entries
        ]
        validate_partition(regions, self.n_pages)
        # File offsets within each tier must tile that tier's file.
        tiers_present = {e.tier for e in self.entries}
        for tier in sorted(tiers_present | {int(Tier.FAST), int(Tier.SLOW)}):
            spans = sorted(
                (e.file_offset_page, e.n_pages)
                for e in self.entries
                if e.tier == tier
            )
            expected = 0
            for offset, n in spans:
                if offset != expected:
                    raise LayoutError(
                        f"tier {tier} file offsets have a gap/overlap at "
                        f"page {expected}"
                    )
                expected = offset + n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MemoryLayout)
            and self.n_pages == other.n_pages
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"MemoryLayout(n_pages={self.n_pages}, entries={self.n_mappings}, "
            f"slow={self.slow_fraction:.1%})"
        )


def _regions_of(placement: np.ndarray):
    from ..regions import regions_from_values

    return regions_from_values(placement)
