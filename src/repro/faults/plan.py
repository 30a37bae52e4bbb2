"""Fault plans: the declarative half of the fault-injection plane.

A :class:`FaultPlan` bundles one spec per fault domain — snapshot storage
(SSD), the slow memory tier, snapshot files at rest, and the profiler —
plus the seed every injection decision derives from.  Plans are frozen
and purely declarative; :class:`~repro.faults.injector.FaultInjector`
turns them into deterministic decisions.

The all-zero plan (:data:`ZERO_PLAN`) is the identity: a run with it is
bit-identical to a run with no fault plane at all, which the chaos test
suite asserts on the real experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import config, domains
from ..errors import ConfigError

__all__ = [
    "StorageFaultSpec",
    "TierFaultSpec",
    "SnapshotFaultSpec",
    "ProfilerFaultSpec",
    "HostFaultSpec",
    "BitRotSpec",
    "FaultPlan",
    "ZERO_PLAN",
]


def _check_windows(name: str, windows, *, with_multiplier: bool) -> None:
    for window in windows:
        expected = 3 if with_multiplier else 2
        if len(window) != expected:
            raise ConfigError(f"{name} entries need {expected} fields: {window}")
        start, end = window[0], window[1]
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ConfigError(f"{name} window edges must be finite: {window}")
        if end <= start:
            raise ConfigError(f"{name} window must satisfy start < end: {window}")
        if with_multiplier and not 1.0 <= window[2] < math.inf:
            raise ConfigError(f"{name} multiplier must be finite and >= 1: {window}")


@dataclass(frozen=True)
class StorageFaultSpec:
    """Faults of the snapshot storage device (the Optane SSD).

    ``read_error_rate`` is the per-page-read probability that the device
    returns an error; the restore layer retries such reads with capped
    exponential backoff (``backoff_base_s`` doubling up to
    ``backoff_cap_s``, at most ``max_retries`` attempts).  Each retry
    succeeds with ``retry_success_rate`` (defaults to the complement of
    the error rate).  Independently, ``latency_spike_rate`` of reads
    stall for ``latency_spike_s`` without failing.
    """

    read_error_rate: float = domains.probability(0.0)
    retry_success_rate: float | None = domains.optional(domains.probability())
    max_retries: int = domains.count(4, least=1)
    backoff_base_s: float = domains.real(100e-6, gt=0.0)
    backoff_cap_s: float = domains.real(10e-3, gt=0.0)
    latency_spike_rate: float = domains.probability(0.0)
    latency_spike_s: float = domains.real(2e-3, ge=0.0)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)
        if self.backoff_cap_s < self.backoff_base_s:
            raise ConfigError("need backoff_base_s <= backoff_cap_s")

    @property
    def effective_retry_success_rate(self) -> float:
        """Retry success probability (complement of the error rate unless
        pinned explicitly)."""
        if self.retry_success_rate is not None:
            return self.retry_success_rate
        return 1.0 - self.read_error_rate

    @property
    def is_zero(self) -> bool:
        """True when this spec never injects anything."""
        return self.read_error_rate == 0.0 and self.latency_spike_rate == 0.0


@dataclass(frozen=True)
class TierFaultSpec:
    """Faults of the slow memory tier (PMEM pressure and outages).

    ``outage_windows`` are ``(start_s, end_s)`` intervals of simulated
    time during which the slow tier cannot be mapped: tiered restores
    raise :class:`~repro.errors.TierUnavailableError` and must fall back.
    ``backpressure_windows`` are ``(start_s, end_s, latency_multiplier)``
    intervals during which slow-tier access latency is inflated — the
    software-defined-tier demotion-pressure scenario.
    """

    outage_windows: tuple[tuple[float, float], ...] = ()
    backpressure_windows: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        _check_windows("outage_windows", self.outage_windows, with_multiplier=False)
        _check_windows(
            "backpressure_windows", self.backpressure_windows, with_multiplier=True
        )

    @property
    def is_zero(self) -> bool:
        """True when this spec never injects anything."""
        return not self.outage_windows and not self.backpressure_windows


@dataclass(frozen=True)
class SnapshotFaultSpec:
    """At-rest corruption of snapshot files.

    ``corruption_rate`` is the per-restore probability that the snapshot
    file being opened turns out corrupt; when it fires, ``corrupt_pages``
    page versions are flipped in place, so page-level checksums
    (:meth:`~repro.vm.snapshot.SingleTierSnapshot.verify`) detect the
    damage on this and every later restore until the snapshot is
    regenerated.
    """

    corruption_rate: float = domains.probability(0.0)
    corrupt_pages: int = domains.count(8, least=1)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)

    @property
    def is_zero(self) -> bool:
        """True when this spec never injects anything."""
        return self.corruption_rate == 0.0


@dataclass(frozen=True)
class ProfilerFaultSpec:
    """Loss of profiler output (a DAMON file that never lands).

    ``sample_loss_rate`` is the per-profiling-invocation probability that
    the DAMON snapshot is lost before it can be folded into the unified
    pattern; the controller extends profiling instead of crashing.
    """

    sample_loss_rate: float = domains.probability(0.0)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)

    @property
    def is_zero(self) -> bool:
        """True when this spec never injects anything."""
        return self.sample_loss_rate == 0.0


@dataclass(frozen=True)
class BitRotSpec:
    """Silent at-rest decay of snapshot media (the durability domain).

    Three decay modes, all seeded and all scaling with how long a copy
    has sat unrefreshed on its medium:

    * **Scattered bit-rot** — each page independently rots at a per-media
      Poisson rate (``<media>_rate_per_page_s``).  Over a residency of
      ``t`` seconds a page flips with probability ``1 - exp(-rate * t)``,
      so aging a copy in two steps draws from the same distribution as
      aging it once — residency accounting is time-consistent.  Rates are
      per media class: DRAM copies barely rot, PMEM cells wear, SSD
      blocks lose charge fastest.
    * **Latent sectors** — whole contiguous runs of
      ``latent_sector_pages`` pages die together at
      ``latent_sector_rate_per_s`` per copy (the classic
      latent-sector-error mode of disk studies).
    * **Torn writes** — with probability ``torn_write_rate`` per snapshot
      *write* (generation or replication copy), the final
      ``torn_write_pages`` pages of the file never land intact.

    All rates default to zero, so this spec is inert unless opted into.
    """

    dram_rate_per_page_s: float = domains.real(0.0, ge=0.0)
    pmem_rate_per_page_s: float = domains.real(0.0, ge=0.0)
    ssd_rate_per_page_s: float = domains.real(0.0, ge=0.0)
    latent_sector_rate_per_s: float = domains.real(0.0, ge=0.0)
    latent_sector_pages: int = domains.count(16, least=1)
    torn_write_rate: float = domains.probability(0.0)
    torn_write_pages: int = domains.count(4, least=1)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)

    def rate_for(self, media_class: str) -> float:
        """The scattered per-page rot rate of one media class."""
        rates = {
            "dram": self.dram_rate_per_page_s,
            "pmem": self.pmem_rate_per_page_s,
            "ssd": self.ssd_rate_per_page_s,
        }
        try:
            return rates[media_class]
        except KeyError:
            raise ConfigError(
                f"unknown media class {media_class!r} "
                f"(expected one of {sorted(rates)})"
            ) from None

    @property
    def is_zero(self) -> bool:
        """True when this spec never injects anything."""
        return (
            self.dram_rate_per_page_s == 0.0
            and self.pmem_rate_per_page_s == 0.0
            and self.ssd_rate_per_page_s == 0.0
            and self.latent_sector_rate_per_s == 0.0
            and self.torn_write_rate == 0.0
        )


@dataclass(frozen=True)
class HostFaultSpec:
    """Faults of one whole host in a cluster fleet.

    ``crash_windows`` are ``(crash_s, recovered_s)`` intervals of
    simulated time during which the host is down: requests in flight (or
    queued) when a window opens are killed, the host's keep-alive and
    pre-warm state is evicted, and no request can be routed to it until
    the window closes.  Snapshots at rest on the host's local storage
    survive a crash, so a recovered host serves tiered restores again.

    ``partition_windows`` are ``(start_s, end_s)`` intervals during
    which the host is network-partitioned: it cannot be routed to *and*
    its at-rest snapshots are unreachable for re-placement copies — but
    nothing running on it is killed.
    """

    host: int = domains.count()
    crash_windows: tuple[tuple[float, float], ...] = ()
    partition_windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)
        _check_windows("crash_windows", self.crash_windows, with_multiplier=False)
        _check_windows(
            "partition_windows", self.partition_windows, with_multiplier=False
        )

    @property
    def is_zero(self) -> bool:
        """True when this spec never injects anything."""
        return not self.crash_windows and not self.partition_windows

    def down_at(self, t_s: float) -> bool:
        """Whether the host is crashed at a simulated time."""
        return any(start <= t_s < end for start, end in self.crash_windows)

    def partitioned_at(self, t_s: float) -> bool:
        """Whether the host is partitioned at a simulated time."""
        return any(start <= t_s < end for start, end in self.partition_windows)

    def routable_at(self, t_s: float) -> bool:
        """Whether a request can be dispatched to the host at ``t_s``."""
        return not self.down_at(t_s) and not self.partitioned_at(t_s)

    def crash_overlapping(
        self, start_s: float, end_s: float
    ) -> tuple[float, float] | None:
        """The first crash window overlapping ``[start_s, end_s)``, if any.

        A request whose service interval overlaps a crash window was in
        flight (or queued) when the host died and is killed at the
        window's start.
        """
        for window in self.crash_windows:
            if start_s < window[1] and end_s > window[0]:
                return window
        return None


@dataclass(frozen=True)
class FaultPlan:
    """One spec per fault domain plus the seed all decisions derive from."""

    ssd: StorageFaultSpec = field(default_factory=StorageFaultSpec)
    tier: TierFaultSpec = field(default_factory=TierFaultSpec)
    snapshot: SnapshotFaultSpec = field(default_factory=SnapshotFaultSpec)
    profiler: ProfilerFaultSpec = field(default_factory=ProfilerFaultSpec)
    bitrot: BitRotSpec = field(default_factory=BitRotSpec)
    hosts: tuple[HostFaultSpec, ...] = ()
    seed: int = domains.seed(config.DEFAULT_SEED)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)
        seen: set[int] = set()
        for spec in self.hosts:
            if spec.host in seen:
                raise ConfigError(
                    f"duplicate HostFaultSpec for host {spec.host}"
                )
            seen.add(spec.host)

    def host_spec(self, host: int) -> HostFaultSpec | None:
        """The spec targeting ``host``, or None when it never faults."""
        for spec in self.hosts:
            if spec.host == host:
                return spec
        return None

    @property
    def is_zero(self) -> bool:
        """True when no domain ever injects (the identity plan)."""
        return (
            self.ssd.is_zero
            and self.tier.is_zero
            and self.snapshot.is_zero
            and self.profiler.is_zero
            and self.bitrot.is_zero
            and all(spec.is_zero for spec in self.hosts)
        )


ZERO_PLAN = FaultPlan()
"""The identity plan: injects nothing, perturbs nothing."""
