"""Memory tiers: device characteristics and the tiered memory system.

The paper's cost formula (Equation 1) and all timing results depend only on
each tier's load/store latency, shared throughput, and price per MB.
``TierSpec`` captures those; :class:`MemorySystem` chains a fast tier,
optional middle tiers and a slow tier and answers the latency/cost queries
the rest of the simulator needs.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import config, domains
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..faults.injector import FaultInjector

__all__ = ["Tier", "TierSpec", "MemorySystem", "DEFAULT_MEMORY_SYSTEM",
           "DRAM_SPEC", "PMEM_SPEC"]


class Tier(enum.IntEnum):
    """Identity of a memory tier.

    ``FAST`` is the small, expensive tier (DRAM in the paper) and ``SLOW``
    the dense, cheap tier (Optane PMEM in the paper).  The integer values
    are used directly as indices into per-tier numpy arrays.
    """

    FAST = 0
    SLOW = 1


@dataclass(frozen=True)
class TierSpec:
    """Device characteristics of one memory tier.

    Attributes
    ----------
    name:
        Human-readable device name (e.g. ``"DDR4 DRAM"``).
    load_latency_s / store_latency_s:
        Average unloaded latency of one memory-level (LLC-miss) load/store.
    bandwidth_bps:
        Total sustainable bandwidth shared by all concurrent invocations.
    access_bytes:
        Bytes moved per access (64 B cachelines on DRAM, 256 B internal
        granularity on Optane).
    cost_per_mb:
        Relative price per MB.  Only ratios matter; the paper uses
        fast:slow = 2.5 (Section VI-B).
    random_penalty:
        Multiplier on ``load_latency_s`` for random (non-serial) access
        patterns; DRAM is 1.0, Optane suffers more (Section V-C).
    read_ops_cap / write_ops_cap:
        Sustainable operations/s of the whole tier before queueing sets in
        (``inf`` = never binds).  These drive the Figure 9 concurrency
        collapse: Optane's loaded latency explodes near saturation.
    """

    name: str
    load_latency_s: float = domains.real(gt=0.0)
    store_latency_s: float = domains.real(gt=0.0)
    bandwidth_bps: float = domains.real(gt=0.0)
    access_bytes: int = domains.count(least=1)
    # A zero price is a meaningful limit (free archive/compressed
    # capacity); consumers that form price *ratios* handle it
    # explicitly (see MemorySystem.cost_ratio).
    cost_per_mb: float = domains.real(ge=0.0)
    random_penalty: float = domains.real(1.0, ge=1.0)
    read_ops_cap: float = domains.real(math.inf, gt=0.0, inf_ok=True)
    write_ops_cap: float = domains.real(math.inf, gt=0.0, inf_ok=True)
    media_class: str = "dram"
    """Durability media class (``"dram"``/``"pmem"``/``"ssd"``): selects
    the at-rest bit-rot rate of :class:`repro.faults.BitRotSpec` for
    snapshot files resting on this tier."""

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)

    def effective_load_latency_s(self, random_fraction: float = 0.0) -> float:
        """Load latency when ``random_fraction`` of accesses stride
        unpredictably (the rest are serial)."""
        if not 0.0 <= random_fraction <= 1.0:
            raise ConfigError("random_fraction must lie in [0, 1]")
        serial = 1.0 - random_fraction
        return self.load_latency_s * (serial + random_fraction * self.random_penalty)

    def effective_access_latency_s(
        self, random_fraction: float = 0.0, store_fraction: float = 0.0
    ) -> float:
        """Blended latency of one access given random and store mixes."""
        if not 0.0 <= store_fraction <= 1.0:
            raise ConfigError("store_fraction must lie in [0, 1]")
        load = self.effective_load_latency_s(random_fraction)
        return (1.0 - store_fraction) * load + store_fraction * self.store_latency_s


DRAM_SPEC = TierSpec(
    name="DDR4 DRAM",
    load_latency_s=config.DRAM_LOAD_LATENCY_S,
    store_latency_s=config.DRAM_STORE_LATENCY_S,
    bandwidth_bps=config.DRAM_BANDWIDTH_BPS,
    access_bytes=config.CACHELINE_BYTES,
    cost_per_mb=config.COST_RATIO_FAST_OVER_SLOW,
    random_penalty=1.0,
)

PMEM_SPEC = TierSpec(
    name="Intel Optane PMEM",
    load_latency_s=config.PMEM_LOAD_LATENCY_S,
    store_latency_s=config.PMEM_STORE_LATENCY_S,
    bandwidth_bps=config.PMEM_BANDWIDTH_BPS,
    access_bytes=config.PMEM_ACCESS_BYTES,
    cost_per_mb=1.0,
    random_penalty=config.PMEM_RANDOM_PENALTY,
    read_ops_cap=config.PMEM_READ_OPS_CAP,
    write_ops_cap=config.PMEM_WRITE_OPS_CAP,
    media_class="pmem",
)


@dataclass(frozen=True)
class MemorySystem:
    """A main memory of ordered tiers: fast, optional middle, slow.

    The single source of truth for per-tier latency and price, consumed by
    the execution engine (:mod:`repro.vm.microvm`), the cost model
    (:mod:`repro.core.cost`) and the contention model
    (:mod:`repro.memsim.bandwidth`).

    Historically this was exactly one fast and one slow tier, and that
    remains the default shape (``middle=()``): every two-tier code path is
    untouched and bit-identical.  ``middle`` inserts software-defined
    tiers (e.g. compressed DRAM pools, :mod:`repro.memsim.compressed`)
    *between* the fast and slow tiers in the speed/price chain.  Tier ids
    stay stable — ``Tier.FAST`` is 0 and ``Tier.SLOW`` is 1 as always —
    and middle tier ``i`` takes id ``2 + i``, so existing placements and
    per-tier arrays never re-index.
    """

    fast: TierSpec
    slow: TierSpec
    fault_hook: "FaultInjector | None" = None
    """The fault injector every component on this memory draws from, and
    the only way one reaches the stack.  Restores draw their faults from
    it, the platform advances its clock, and :meth:`spec` inflates
    slow-tier latency by its current backpressure multiplier; ``None``
    (the default) is the exact pre-fault happy path."""
    middle: tuple[TierSpec, ...] = ()
    """Software-defined tiers between fast and slow, ordered fastest
    first.  Middle tier ``i`` has tier id ``2 + i``."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "middle", tuple(self.middle))
        # Validate the full chain (fastest/priciest first), not just the
        # fast/slow endpoints: every tier must be no faster and no
        # pricier than the one above it, so demotion is always a
        # price-for-latency trade.
        chain = self.chain
        for above, below in zip(chain, chain[1:]):
            if below.load_latency_s < above.load_latency_s:
                if len(chain) == 2:
                    raise ConfigError(
                        "slow tier must not be faster than the fast tier"
                    )
                raise ConfigError(
                    f"{below.name} is faster than {above.name}: tiers must "
                    "be ordered fastest first"
                )
            if below.cost_per_mb > above.cost_per_mb:
                if len(chain) == 2:
                    raise ConfigError(
                        "slow tier must not cost more than the fast tier"
                    )
                raise ConfigError(
                    f"{below.name} costs more than {above.name}: tiers must "
                    "be ordered priciest first"
                )

    @property
    def chain(self) -> tuple[TierSpec, ...]:
        """All tiers in logical order: fast, middle tiers, slow."""
        return (self.fast, *self.middle, self.slow)

    @property
    def n_tiers(self) -> int:
        """Number of tiers in the chain (2 without middle tiers)."""
        return 2 + len(self.middle)

    @property
    def tier_ids(self) -> tuple[int, ...]:
        """Tier ids in chain (fastest-first) order.

        Ids are stable, not positional: ``(0, 2, 3, ..., 1)`` — the fast
        and slow endpoints keep their historical ids 0 and 1 and middle
        tiers claim 2 upward, so two-tier placements stay valid verbatim.
        """
        return (
            int(Tier.FAST),
            *range(2, 2 + len(self.middle)),
            int(Tier.SLOW),
        )

    def with_fault_hook(self, hook: "FaultInjector | None") -> "MemorySystem":
        """A copy of this system wired to a fault hook (or unwired)."""
        return dataclasses.replace(self, fault_hook=hook)

    def spec(self, tier: Tier | int) -> TierSpec:
        """Return the :class:`TierSpec` for a tier id.

        Under slow-tier backpressure (fault hook active inside a window)
        the returned slow spec carries inflated load/store latencies, so
        execution, accounting, and billing all see the same degraded
        device."""
        t = int(tier)
        if t == int(Tier.FAST):
            return self.fast
        if t != int(Tier.SLOW):
            if 2 <= t < 2 + len(self.middle):
                return self.middle[t - 2]
            raise ConfigError(f"unknown tier id {t}")
        if self.fault_hook is not None:
            mult = self.fault_hook.slow_latency_multiplier()
            if mult > 1.0:
                return dataclasses.replace(
                    self.slow,
                    load_latency_s=self.slow.load_latency_s * mult,
                    store_latency_s=self.slow.store_latency_s * mult,
                )
        return self.slow

    @property
    def cost_ratio(self) -> float:
        """Price ratio fast/slow (2.5 in the paper).

        Undefined when the slow tier is free: a ratio against a zero
        price diverges, so callers that can express the zero-price limit
        directly (e.g. :func:`repro.core.cost.normalized_cost`) must do
        so instead of dividing by this.
        """
        if self.slow.cost_per_mb == 0:
            raise ConfigError(
                f"cost ratio is undefined: slow tier {self.slow.name!r} is "
                "free (cost_per_mb=0); handle the zero-price limit "
                "explicitly instead of forming a ratio"
            )
        return self.fast.cost_per_mb / self.slow.cost_per_mb

    def price_relative(self, tier: Tier | int) -> float:
        """A tier's price relative to the fast tier (<= 1 on any chain).

        The zero-price limit is explicit: a free tier contributes 0.  A
        free *fast* tier cannot normalize anything and raises.
        """
        if self.fast.cost_per_mb == 0:
            raise ConfigError(
                f"cannot normalize prices: fast tier {self.fast.name!r} is "
                "free (cost_per_mb=0)"
            )
        return self.spec(tier).cost_per_mb / self.fast.cost_per_mb

    @property
    def optimal_normalized_cost(self) -> float:
        """Normalized cost of the cheapest tier at zero slowdown (0.4 on
        the paper's two-tier platform)."""
        # Chain ordering caps every price at the fast tier's, so a free
        # fast tier implies a free slow tier and is caught here too.
        if self.slow.cost_per_mb == 0:
            return 0.0
        if not self.middle:
            return 1.0 / self.cost_ratio
        return min(t.cost_per_mb for t in self.chain) / self.fast.cost_per_mb

    def access_latency_by_id(
        self, random_fraction: float = 0.0, store_fraction: float = 0.0
    ) -> np.ndarray:
        """Per-tier effective access latency, indexable by *tier id*.

        Index 0 is the fast tier (:attr:`Tier.FAST`), 1 the slow tier
        (:attr:`Tier.SLOW`, through :meth:`spec`, so backpressure applies)
        and ``2 + i`` middle tier ``i``, ready for vectorised per-id
        bincounts; ``[tier_ids]`` reorders it into chain order.
        """
        slow = self.spec(Tier.SLOW)
        return np.array(
            [
                self.fast.effective_access_latency_s(
                    random_fraction, store_fraction
                ),
                slow.effective_access_latency_s(random_fraction, store_fraction),
                *(
                    m.effective_access_latency_s(random_fraction, store_fraction)
                    for m in self.middle
                ),
            ]
        )

    def latency_ratio(self) -> float:
        """Slow/fast sequential-load latency ratio (~3.75 on DRAM/Optane)."""
        lat = self.access_latency_by_id()
        return float(lat[Tier.SLOW] / lat[Tier.FAST])


DEFAULT_MEMORY_SYSTEM = MemorySystem(fast=DRAM_SPEC, slow=PMEM_SPEC)
"""The paper's evaluation platform: DDR4 fast tier, Optane PMEM slow tier."""
