"""Tiered-memory hardware substrate.

Models the evaluation platform of the paper (Section VI-B): a fast tier
(DDR4 DRAM), a slow tier (Intel Optane Persistent Memory), and an Optane SSD
holding snapshot files, plus the host page cache that the evaluation drops
between invocations.

The substrate is *parametric*: any two memory technologies can play the fast
and slow roles (Section III notes DDR5 + CXL-attached DDR4, GPU HBM + DRAM,
etc.), so all device characteristics live in :class:`TierSpec` /
:class:`StorageSpec` values rather than in code.
"""

from .tiers import Tier, TierSpec, MemorySystem, DEFAULT_MEMORY_SYSTEM
from .storage import StorageSpec
from .page_cache import HostPageCache
from .bandwidth import ContentionModel, TierDemand
from .accounting import PerfCounters
from .compressed import (
    CompressionPoint,
    CompressedTierSpec,
    OPERATING_POINTS,
    compressed_tier,
    compressed_memory_system,
)

__all__ = [
    "Tier",
    "TierSpec",
    "MemorySystem",
    "DEFAULT_MEMORY_SYSTEM",
    "CompressionPoint",
    "CompressedTierSpec",
    "OPERATING_POINTS",
    "compressed_tier",
    "compressed_memory_system",
    "StorageSpec",
    "HostPageCache",
    "ContentionModel",
    "TierDemand",
    "PerfCounters",
]
