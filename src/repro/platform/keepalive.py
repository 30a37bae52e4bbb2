"""Keep-alive caching of warm VMs (Section VI-A's orthogonality claim).

The paper excludes caching from its evaluation but argues TOSS composes
with it: "TOSS can keep the VM alive on both tiers until evicted".  This
module supplies the missing piece — a Greedy-Dual-Size-Frequency
keep-alive cache in the style of FaasCache (Fuerst & Sharma, ASPLOS'21)
— and accounts VM memory *by fast-tier footprint*.  A TOSS-tiered VM
holds only its fast fraction in DRAM, so the same DRAM budget keeps many
more functions warm: that synergy is quantified by
``benchmarks/test_ablation_keepalive.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulerError

__all__ = ["CacheEntry", "KeepAliveCache"]


@dataclass
class CacheEntry:
    """One warm VM kept alive."""

    name: str
    fast_mb: float
    init_cost_s: float
    priority: float
    frequency: int = 1


class KeepAliveCache:
    """Greedy-Dual-Size-Frequency keep-alive over a fast-tier budget.

    Priority of an entry is ``clock + frequency * init_cost / size``:
    recently used, expensive-to-cold-start, small functions survive
    longest — the FaasCache recipe.  The budget charges only DRAM-resident
    bytes, which is where TOSS changes the game.
    """

    def __init__(self, capacity_mb: float) -> None:
        if capacity_mb <= 0:
            raise SchedulerError("cache capacity must be positive")
        self.capacity_mb = float(capacity_mb)
        self._entries: dict[str, CacheEntry] = {}
        self._clock = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- queries ---------------------------------------------------------------

    @property
    def used_mb(self) -> float:
        """Fast-tier memory pinned by warm VMs."""
        return sum(e.fast_mb for e in self._entries.values())

    @property
    def warm_functions(self) -> set[str]:
        """Functions currently kept warm."""
        return set(self._entries)

    # -- operations -------------------------------------------------------------

    def lookup(self, name: str) -> bool:
        """Check for a warm VM; refreshes its priority on a hit."""
        entry = self._entries.get(name)
        if entry is None:
            self.misses += 1
            return False
        self.hits += 1
        entry.frequency += 1
        entry.priority = self._clock + (
            entry.frequency * entry.init_cost_s / max(entry.fast_mb, 1e-9)
        )
        return True

    def admit(self, name: str, *, fast_mb: float, init_cost_s: float) -> bool:
        """Try to keep a VM warm after an invocation.

        Evicts lowest-priority entries while they are cheaper to drop than
        the newcomer is to keep (Greedy-Dual); returns False when the
        newcomer does not fit or loses the comparison.
        """
        if fast_mb <= 0 or init_cost_s < 0:
            raise SchedulerError("admission needs positive size, non-negative cost")
        # Re-admission after a re-profiling cycle must bill the *current*
        # footprint, not the one frozen at first admission — remove the
        # stale entry (keeping its frequency) and run the normal flow so
        # a grown footprint re-competes for capacity.
        existing = self._entries.pop(name, None)
        frequency = existing.frequency if existing is not None else 1
        if fast_mb > self.capacity_mb:
            return False
        priority = self._clock + frequency * init_cost_s / fast_mb
        while self.used_mb + fast_mb > self.capacity_mb:
            victim = min(self._entries.values(), key=lambda e: e.priority)
            if victim.priority > priority:
                return False  # everything resident is worth more
            self._clock = max(self._clock, victim.priority)  # Greedy-Dual aging
            del self._entries[victim.name]
            self.evictions += 1
        self._entries[name] = CacheEntry(
            name=name,
            fast_mb=fast_mb,
            init_cost_s=init_cost_s,
            priority=priority,
            frequency=frequency,
        )
        return True

    def invalidate(self, name: str) -> None:
        """Drop a warm VM (e.g. after a re-profiling cycle changes its
        tiered snapshot)."""
        self._entries.pop(name, None)

    def shrink_to(self, target_mb: float) -> list[str]:
        """Pressure eviction: evict lowest-priority warm VMs until the
        cache's fast-tier footprint is at most ``target_mb``.

        The overload ladder calls this when the platform leaves HEALTHY —
        warm VMs are the one memory consumer the platform can reclaim
        instantly.  Evictions age the Greedy-Dual clock exactly like
        admission-driven evictions, so later admissions see a consistent
        priority baseline.  Returns the evicted function names.
        """
        if target_mb < 0:
            raise SchedulerError("shrink target must be non-negative")
        evicted: list[str] = []
        while self._entries and self.used_mb > target_mb:
            victim = min(self._entries.values(), key=lambda e: e.priority)
            self._clock = max(self._clock, victim.priority)
            del self._entries[victim.name]
            self.evictions += 1
            evicted.append(victim.name)
        return evicted
