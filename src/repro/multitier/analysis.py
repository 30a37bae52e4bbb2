"""``MultiTierAnalyzer.analyze``: the named entry point of the measured
N-tier placement search, :func:`repro.core.tiering.search_tier_placement`.

The outside-in benchmark (``bench/tracing.py``) times the search as its
``multitier.analyze`` layer through this method.  The class goes once
that layer names the function.
"""

from __future__ import annotations

from ..core.tiering import TierPlacement, search_tier_placement
from ..memsim.tiers import MemorySystem

__all__ = ["MultiTierAnalyzer"]


class MultiTierAnalyzer:
    """:func:`search_tier_placement` bound to one memory system."""

    def __init__(self, memory: MemorySystem) -> None:
        self.memory = memory

    def analyze(self, pattern, profile_trace, **options) -> TierPlacement:
        """``search_tier_placement(pattern, profile_trace, memory, **options)``."""
        return search_tier_placement(pattern, profile_trace, self.memory, **options)
