"""Software-defined compressed DRAM tiers.

Following Intel's "Taming Server Memory TCO with Multiple Software-Defined
Compressed Tiers" (PAPERS.md), a zswap/zram-style pool turns part of DRAM
into a denser, cheaper, slightly slower tier with *no new hardware*: pages
are stored compressed, so one physical MB holds ``ratio`` logical MB, and
every first touch pays a decompression before the page is usable.

The model has two knobs per operating point:

* **ratio** — logical/physical capacity multiplier.  Effective price per
  logical MB is the backing DRAM price divided by the ratio; effective
  byte throughput scales *up* by the ratio (each physical byte moved
  carries ``ratio`` logical bytes).
* **[de]compression latency per page** — charged on page faults in full
  (:class:`repro.vm.microvm.Backing.COMPRESSED_POOL`), and amortised over
  the page's cacheline accesses into the tier's access latency, which is
  how a software tier slots into the existing :class:`TierSpec` latency
  machinery unchanged.

Multiple operating points coexist in one chain (the Intel paper's core
observation): a fast low-ratio point near DRAM and a slow high-ratio point
near the capacity tier trace out a TCO-vs-slowdown frontier
(:mod:`repro.experiments.tco_frontier`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import config, domains
from ..errors import ConfigError
from .tiers import DRAM_SPEC, MemorySystem, PMEM_SPEC, TierSpec

__all__ = [
    "CompressionPoint",
    "CompressedTierSpec",
    "IDENTITY_POINT",
    "LZ4_POINT",
    "ZSTD_POINT",
    "DEFLATE_POINT",
    "OPERATING_POINTS",
    "compressed_tier",
    "compressed_memory_system",
]


@dataclass(frozen=True)
class CompressionPoint:
    """One ratio/latency operating point of a software compressed tier."""

    name: str
    ratio: float = domains.real(ge=1.0)
    """Logical bytes stored per physical byte (>= 1)."""
    compress_page_latency_s: float = domains.real(ge=0.0)
    """CPU time to compress one page on store-out into the pool."""
    decompress_page_latency_s: float = domains.real(ge=0.0)
    """CPU time to decompress one page on fault-in from the pool."""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("compression points need a name")
        domains.check_fields(self, ConfigError)


IDENTITY_POINT = CompressionPoint(
    name="identity", ratio=1.0,
    compress_page_latency_s=0.0, decompress_page_latency_s=0.0,
)
"""The no-op point: a compressed tier at ratio 1 with free codecs is the
backing tier itself (byte-identity anchor for tests)."""

LZ4_POINT = CompressionPoint(
    name="lz4", ratio=2.5,
    compress_page_latency_s=3.0e-6, decompress_page_latency_s=1.0e-6,
)
"""Fast/low-ratio point: an lz4-class codec at memory speed."""

ZSTD_POINT = CompressionPoint(
    name="zstd", ratio=3.5,
    compress_page_latency_s=9.0e-6, decompress_page_latency_s=2.5e-6,
)
"""Balanced point: a zstd-class codec, denser but slower."""

DEFLATE_POINT = CompressionPoint(
    name="deflate", ratio=4.2,
    compress_page_latency_s=2.5e-5, decompress_page_latency_s=7.0e-6,
)
"""Dense/slow point: a deflate-class codec for the coldest pages."""

OPERATING_POINTS = (LZ4_POINT, ZSTD_POINT, DEFLATE_POINT)
"""The modelled ratio/latency operating points, fastest first."""


@dataclass(frozen=True)
class CompressedTierSpec(TierSpec):
    """A :class:`TierSpec` backed by a compressed pool in another tier.

    Behaves as a plain tier everywhere (latency, price, bandwidth) — the
    amortised codec latencies and the ratio-scaled price are baked into
    the inherited fields at construction — while keeping the operating
    point available for the consumers that need the raw ratio (contention
    capacity scaling) or the full per-page codec cost (fault service).
    """

    compression: CompressionPoint = IDENTITY_POINT

    @property
    def effective_capacity_multiplier(self) -> float:
        """Logical bytes served per physical byte (the ratio)."""
        return self.compression.ratio


def compressed_tier(point: CompressionPoint) -> CompressedTierSpec:
    """Build the software tier one operating point defines over DRAM.

    The per-page codec latencies are amortised into the per-access
    latency: a faulted-in page stays decompressed while its cachelines
    are consumed, so each of the page's cachelines carries its share of
    the codec cost.
    """
    base = DRAM_SPEC
    accesses_per_page = config.PAGE_SIZE // base.access_bytes
    return CompressedTierSpec(
        name=f"{base.name} + {point.name} (x{point.ratio:g})",
        load_latency_s=(
            base.load_latency_s
            + point.decompress_page_latency_s / accesses_per_page
        ),
        store_latency_s=(
            base.store_latency_s
            + point.compress_page_latency_s / accesses_per_page
        ),
        bandwidth_bps=base.bandwidth_bps,
        access_bytes=base.access_bytes,
        cost_per_mb=base.cost_per_mb / point.ratio,
        random_penalty=base.random_penalty,
        read_ops_cap=base.read_ops_cap,
        write_ops_cap=base.write_ops_cap,
        media_class=base.media_class,
        compression=point,
    )


def compressed_memory_system(
    points: tuple[CompressionPoint, ...] = (LZ4_POINT,),
    *,
    slow: TierSpec | None = PMEM_SPEC,
) -> MemorySystem:
    """A memory system with compressed middle tiers over DRAM.

    ``points`` are inserted fastest-first between DRAM and ``slow``.
    With ``slow=None`` the densest compressed point itself becomes the
    terminal (slow) tier — the shape the Intel paper argues replaces the
    hardware capacity tier outright.  Chain ordering (no faster, no
    pricier than the tier above) is validated by :class:`MemorySystem`;
    a point too cheap to sit above ``slow`` belongs at the bottom.
    """
    if not points:
        raise ConfigError("need at least one compression point")
    specs = tuple(compressed_tier(p) for p in points)
    if slow is None:
        if len(specs) == 1:
            return MemorySystem(fast=DRAM_SPEC, slow=specs[0])
        return MemorySystem(fast=DRAM_SPEC, slow=specs[-1], middle=specs[:-1])
    return MemorySystem(fast=DRAM_SPEC, slow=slow, middle=specs)
