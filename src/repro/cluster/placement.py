"""Replicated snapshot placement across the fleet.

The cluster scheduler spreads functions over hosts with the
:mod:`repro.binpack` heuristics: a whole-suite deployment is balanced
with :func:`~repro.binpack.heuristics.to_constant_bin_number` (LPT
greedy over guest sizes), incremental deployments go to the lightest
hosts.  Each function's snapshots live on ``replication_factor`` hosts;
the first holder is the *primary* (routing prefers it so profiling
traffic concentrates and converges), the rest are warm standbys.

After a host crash the placement is repaired: the crashed host's
functions gain a replacement holder, effective once the detection and
copy delay has elapsed (:class:`Replacement`).  Routing queries are
time-indexed so a replacement only becomes routable at its effective
time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..binpack import to_constant_bin_number
from ..errors import ClusterError
from ..functions.base import FunctionModel

__all__ = ["Replacement", "SnapshotPlacement"]


@dataclass(frozen=True)
class Replacement:
    """One repair action: ``function`` gains holder ``host`` at
    ``effective_s`` (crash time plus the re-replication delay), copied
    from ``source`` (or rebuilt cold when no reachable copy existed,
    ``source is None``)."""

    effective_s: float
    function: str
    host: int
    source: int | None = None


class SnapshotPlacement:
    """Which hosts hold each function's snapshots, over time."""

    def __init__(self, n_hosts: int, replication_factor: int) -> None:
        if not 1 <= replication_factor <= n_hosts:
            raise ClusterError(
                f"replication_factor must lie in 1..{n_hosts}, "
                f"got {replication_factor}"
            )
        self.n_hosts = n_hosts
        self.replication_factor = replication_factor
        self._weights = [0.0] * n_hosts
        self._holders: dict[str, list[int]] = {}
        self._replacements: list[Replacement] = []

    @property
    def functions(self) -> list[str]:
        """Placed function names, in placement order."""
        return list(self._holders)

    def place(self, name: str, weight_mb: float) -> list[int]:
        """Place one function on the ``replication_factor`` lightest
        hosts (deterministic ties by host id); returns the holders,
        primary first."""
        if name in self._holders:
            return list(self._holders[name])
        order = sorted(range(self.n_hosts), key=lambda h: (self._weights[h], h))
        holders = order[: self.replication_factor]
        for host in holders:
            self._weights[host] += weight_mb
        self._holders[name] = holders
        return list(holders)

    def place_suite(self, functions: list[FunctionModel]) -> None:
        """Balance a whole suite at once with the LPT bin-packing greedy:
        bin ``i`` of :func:`to_constant_bin_number` primaries on host
        ``i``; replicas go on the next hosts round-robin."""
        bins = to_constant_bin_number(
            functions, self.n_hosts, key=lambda f: float(f.guest_mb)
        )
        for host, contents in enumerate(bins):
            for func in contents:
                if func.name in self._holders:
                    raise ClusterError(f"{func.name!r} is already placed")
                holders = [
                    (host + k) % self.n_hosts
                    for k in range(self.replication_factor)
                ]
                for h in holders:
                    self._weights[h] += float(func.guest_mb)
                self._holders[func.name] = holders

    def base_holders(self, name: str) -> list[int]:
        """The function's original holders (primary first)."""
        try:
            return list(self._holders[name])
        except KeyError:
            raise ClusterError(f"function {name!r} is not placed") from None

    def holders_at(self, name: str, t_s: float) -> list[int]:
        """Holders routable-to at ``t_s``: the original holders plus any
        replacement already effective, in preference order."""
        holders = self.base_holders(name)
        for rep in self._replacements:
            if (
                rep.function == name
                and rep.effective_s <= t_s
                and rep.host not in holders
            ):
                holders.append(rep.host)
        return holders

    def add_replacement(self, rep: Replacement) -> None:
        """Record a repair action (idempotent per (function, host))."""
        self.base_holders(rep.function)  # validates the name
        if not 0 <= rep.host < self.n_hosts:
            raise ClusterError(f"replacement host {rep.host} out of range")
        for existing in self._replacements:
            if existing.function == rep.function and existing.host == rep.host:
                return
        self._weights[rep.host] += 0.0
        self._replacements.append(rep)

    def lightest_host_excluding(self, excluded: set[int]) -> int | None:
        """The lightest host not in ``excluded`` (None when all are)."""
        candidates = [h for h in range(self.n_hosts) if h not in excluded]
        if not candidates:
            return None
        return min(candidates, key=lambda h: (self._weights[h], h))

    def note_weight(self, host: int, weight_mb: float) -> None:
        """Account extra weight on a host (replacement copies)."""
        self._weights[host] += weight_mb
