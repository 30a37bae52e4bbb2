"""The fault injector: deterministic decisions from a :class:`FaultPlan`.

Every decision draws from an independent seeded stream keyed by the fault
domain and a per-domain draw counter, so a given plan produces the exact
same fault sequence regardless of what else the simulation does — and an
all-zero plan takes an early return before touching any generator, which
keeps zero-fault runs bit-identical to runs with no injector at all.

The injector also keeps injection counters (reads faulted, retries spent,
corruption events, …) so experiments can report how much chaos a run
actually absorbed, and carries the simulated clock (``now``) that the
platform advances so time-windowed faults (outages, backpressure) line up
with request arrival times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import rng as rng_mod
from ..errors import ConfigError
from .plan import ZERO_PLAN, FaultPlan

__all__ = ["RetryOutcome", "FaultInjector"]


@dataclass(frozen=True)
class RetryOutcome:
    """What retrying a batch of faulted reads cost.

    ``backoff_s`` is the total capped-exponential wait; ``unrecoverable``
    is True when at least one read exhausted its retry budget.
    """

    n_faults: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    unrecoverable: bool = False


_ZERO_RETRY = RetryOutcome()

_ROT_FLIP = np.uint64(0x0B17)
"""Version-flip mask for bit-rot damage (any nonzero flip is detectable:
the checksum mix maps distinct versions to distinct checksums)."""

_TORN_FLIP = np.uint64(0x70B2)
"""Version-flip mask for torn-write damage (distinct from rot so tests
can tell the modes apart by inspecting flipped versions)."""

_EMPTY_PAGES = np.empty(0, dtype=np.int64)


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic injection decisions."""

    def __init__(self, plan: FaultPlan = ZERO_PLAN) -> None:
        self.plan = plan
        self.now = 0.0
        self.counters: dict[str, int] = {
            "read_faults": 0,
            "retries": 0,
            "retry_exhausted": 0,
            "latency_spikes": 0,
            "corruption_events": 0,
            "corrupted_pages": 0,
            "samples_lost": 0,
            "outages_hit": 0,
            "backpressure_hits": 0,
            "rot_events": 0,
            "rot_pages": 0,
            "latent_sectors": 0,
            "torn_writes": 0,
            "torn_pages": 0,
        }
        self._draws: dict[str, int] = {}

    @property
    def is_zero(self) -> bool:
        """True when the plan never injects anything."""
        return self.plan.is_zero

    def _rng(self, domain: str) -> np.random.Generator:
        """A fresh stream per (domain, draw index): decisions in one domain
        never shift decisions in another, whatever the interleaving."""
        index = self._draws.get(domain, 0)
        self._draws[domain] = index + 1
        return rng_mod.stream(self.plan.seed, "fault", domain, index)

    # -- simulated clock ---------------------------------------------------

    def advance_to(self, t_s: float) -> None:
        """Move the injector's clock to simulated time ``t_s``."""
        if t_s < 0:
            raise ConfigError("simulated time must be non-negative")
        self.now = float(t_s)

    # -- storage (SSD) -----------------------------------------------------

    def draw_read_faults(self, n_ops: int) -> int:
        """How many of ``n_ops`` page reads fail on first attempt."""
        spec = self.plan.ssd
        if n_ops <= 0 or spec.read_error_rate == 0.0:
            return 0
        n = int(self._rng("ssd-read").binomial(n_ops, spec.read_error_rate))
        self.counters["read_faults"] += n
        return n

    def retry_reads(self, n_faults: int) -> RetryOutcome:
        """Retry ``n_faults`` failed reads with capped exponential backoff.

        Each read gets up to ``max_retries`` further attempts, waiting
        ``backoff_base_s * 2**k`` (capped at ``backoff_cap_s``) before
        attempt ``k``; a read that exhausts its budget marks the whole
        batch unrecoverable — the caller must fall back or raise.
        """
        spec = self.plan.ssd
        if n_faults <= 0:
            return _ZERO_RETRY
        rng = self._rng("ssd-retry")
        p_ok = spec.effective_retry_success_rate
        retries = 0
        backoff_s = 0.0
        unrecoverable = False
        for _ in range(n_faults):
            recovered = False
            for attempt in range(spec.max_retries):
                backoff_s += min(
                    spec.backoff_base_s * (2.0**attempt), spec.backoff_cap_s
                )
                retries += 1
                if rng.random() < p_ok:
                    recovered = True
                    break
            if not recovered:
                unrecoverable = True
        self.counters["retries"] += retries
        if unrecoverable:
            self.counters["retry_exhausted"] += 1
        return RetryOutcome(
            n_faults=n_faults,
            retries=retries,
            backoff_s=backoff_s,
            unrecoverable=unrecoverable,
        )

    def storage_spike_s(self, n_ops: int) -> float:
        """Extra latency from transient device stalls across ``n_ops``."""
        spec = self.plan.ssd
        if n_ops <= 0 or spec.latency_spike_rate == 0.0:
            return 0.0
        n = int(self._rng("ssd-spike").binomial(n_ops, spec.latency_spike_rate))
        self.counters["latency_spikes"] += n
        return n * spec.latency_spike_s

    # -- slow tier ---------------------------------------------------------

    def slow_tier_available(self) -> bool:
        """Whether the slow tier can be mapped at the injector's clock."""
        for start, end in self.plan.tier.outage_windows:
            if start <= self.now < end:
                self.counters["outages_hit"] += 1
                return False
        return True

    def slow_latency_multiplier(self) -> float:
        """Backpressure inflation of slow-tier latency at the injector's
        clock.

        This is the ``MemorySystem`` fault hook: 1.0 outside every
        backpressure window, the worst matching multiplier inside.  A
        pure read, asked on every slow-tier spec lookup; the restore that
        maps through a window counts ``backpressure_hits``.
        """
        mult = 1.0
        for start, end, m in self.plan.tier.backpressure_windows:
            if start <= self.now < end:
                mult = max(mult, m)
        return mult

    # -- snapshot files ----------------------------------------------------

    def draw_snapshot_corruption(self) -> bool:
        """Whether the snapshot file being opened turns out corrupt."""
        rate = self.plan.snapshot.corruption_rate
        if rate == 0.0:
            return False
        hit = bool(self._rng("snap-corrupt").random() < rate)
        if hit:
            self.counters["corruption_events"] += 1
        return hit

    def corrupt_snapshot(self, snapshot) -> np.ndarray:
        """Flip page versions of one snapshot copy; returns the indices.

        The damage persists (at-rest corruption): every later restore of
        the same object sees it until the snapshot is regenerated.
        """
        n = min(self.plan.snapshot.corrupt_pages, snapshot.n_pages)
        pages = self._rng("snap-pages").choice(snapshot.n_pages, size=n, replace=False)
        flipped = snapshot.read_pages(pages) ^ np.uint64(0xDEAD)
        snapshot.write_pages(pages, flipped)
        self.counters["corrupted_pages"] += int(n)
        return pages

    # -- bit-rot (at-rest media decay) -------------------------------------

    def draw_bitrot_pages(
        self, n_pages: int, residency_s: float, media_class: str
    ) -> np.ndarray:
        """Pages scattered-rotted after ``residency_s`` on one medium.

        Each page rots independently with the exponential survival law
        ``p = 1 - exp(-rate * residency_s)``, so splitting a residency
        into several aging steps draws from the same distribution as one
        combined step.  Returns sorted unique page indices (empty for a
        zero rate or residency).
        """
        rate = self.plan.bitrot.rate_for(media_class)
        if n_pages <= 0 or rate == 0.0 or residency_s <= 0.0:
            return _EMPTY_PAGES
        p = 1.0 - math.exp(-rate * residency_s)
        rng = self._rng("bitrot-scatter")
        n = int(rng.binomial(n_pages, p))
        if n == 0:
            return _EMPTY_PAGES
        pages = np.sort(rng.choice(n_pages, size=n, replace=False))
        return pages.astype(np.int64)

    def draw_latent_sector(
        self, n_pages: int, residency_s: float
    ) -> np.ndarray:
        """A latent-sector run that died during ``residency_s``, if any.

        Whole-sector failures hit a contiguous run of
        ``latent_sector_pages`` pages at ``latent_sector_rate_per_s`` per
        copy — the burst mode scattered rot cannot produce.
        """
        spec = self.plan.bitrot
        if (
            n_pages <= 0
            or spec.latent_sector_rate_per_s == 0.0
            or residency_s <= 0.0
        ):
            return _EMPTY_PAGES
        p = 1.0 - math.exp(-spec.latent_sector_rate_per_s * residency_s)
        rng = self._rng("bitrot-sector")
        if rng.random() >= p:
            return _EMPTY_PAGES
        run = min(spec.latent_sector_pages, n_pages)
        start = int(rng.integers(0, n_pages - run + 1))
        self.counters["latent_sectors"] += 1
        return np.arange(start, start + run, dtype=np.int64)

    def rot_snapshot(
        self, snapshot, residency_s: float, media_class: str
    ) -> np.ndarray:
        """Age a snapshot at rest: flip rotted page versions in place.

        Combines scattered rot and latent-sector runs for one residency
        interval on ``media_class`` media.  Damage persists until the
        copy is repaired or regenerated; returns the flipped indices
        (sorted, unique — possibly empty).
        """
        spec = self.plan.bitrot
        if spec.is_zero or residency_s <= 0.0:
            return _EMPTY_PAGES
        scattered = self.draw_bitrot_pages(
            snapshot.n_pages, residency_s, media_class
        )
        sector = self.draw_latent_sector(snapshot.n_pages, residency_s)
        if scattered.size == 0 and sector.size == 0:
            return _EMPTY_PAGES
        pages = np.union1d(scattered, sector)
        # Wrapping add, not XOR: a page rotted twice must stay damaged
        # (an XOR flip applied twice would silently self-heal, leaving a
        # recorded corruption that no scrub can ever detect).
        snapshot.write_pages(pages, snapshot.read_pages(pages) + _ROT_FLIP)
        self.counters["rot_events"] += 1
        self.counters["rot_pages"] += int(pages.size)
        return pages

    def tear_write(self, snapshot) -> np.ndarray:
        """Maybe tear a snapshot write: flip the file's tail pages.

        Drawn once per snapshot *write* (generation or replication copy)
        with probability ``torn_write_rate``; a torn write leaves the
        final ``torn_write_pages`` pages inconsistent with their
        checksums.  Returns the flipped indices (empty when intact).
        """
        spec = self.plan.bitrot
        if spec.torn_write_rate == 0.0 or snapshot.n_pages <= 0:
            return _EMPTY_PAGES
        if self._rng("bitrot-torn").random() >= spec.torn_write_rate:
            return _EMPTY_PAGES
        n = min(spec.torn_write_pages, snapshot.n_pages)
        pages = np.arange(snapshot.n_pages - n, snapshot.n_pages, dtype=np.int64)
        snapshot.write_pages(pages, snapshot.read_pages(pages) + _TORN_FLIP)
        self.counters["torn_writes"] += 1
        self.counters["torn_pages"] += int(n)
        return pages

    # -- profiler ----------------------------------------------------------

    def draw_sample_loss(self) -> bool:
        """Whether this profiling invocation's DAMON snapshot is lost."""
        rate = self.plan.profiler.sample_loss_rate
        if rate == 0.0:
            return False
        hit = bool(self._rng("profiler-loss").random() < rate)
        if hit:
            self.counters["samples_lost"] += 1
        return hit
