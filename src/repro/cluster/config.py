"""Cluster fleet configuration.

One frozen config object tunes the whole fault-tolerant fleet layer:
how many hosts, how widely tiered snapshots are replicated, how killed
or unroutable requests are re-dispatched (bounded attempts with capped
exponential backoff), how quickly a crashed host's snapshots are
re-placed onto a surviving host, and where the fleet-wide degradation
ladder's rungs sit as a function of the fraction of hosts down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import config, domains
from ..errors import ConfigError

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning for a :class:`~repro.cluster.fleet.ClusterPlatform`."""

    n_hosts: int = domains.count(4, least=1)
    """Hosts in the fleet, each running its own deterministic platform."""

    replication_factor: int = domains.count(1, least=1)
    """Hosts holding each function's snapshots.  1 means a single copy
    (a host crash orphans it until re-placement); >= 2 gives the router
    live replicas to fail over to."""

    cores_per_host: int = domains.count(4, least=1)
    """vCPUs per host (each host is an independent core pool)."""

    max_redispatch_attempts: int = domains.count(3)
    """Re-dispatches a request may consume (after its first dispatch)
    before the cluster sheds it with a typed
    :class:`~repro.errors.ClusterError` outcome."""

    redispatch_backoff_base_s: float = domains.real(0.05, gt=0.0)
    """Backoff before the first re-dispatch; doubles per attempt."""

    redispatch_backoff_cap_s: float = domains.real(0.4, gt=0.0)
    """Ceiling on the per-attempt re-dispatch backoff."""

    re_replication_delay_s: float = domains.real(0.5, ge=0.0)
    """Detection-plus-copy delay before a crashed host's snapshots are
    re-placed onto a replacement host (the copy lands this long after
    the crash)."""

    hosts_down_pressured: float = domains.real(0.25, gt=0.0, le=1.0)
    """Fleet ladder: fraction of hosts unavailable at which the fleet is
    at least PRESSURED."""

    hosts_down_degraded: float = domains.real(0.50, gt=0.0, le=1.0)
    """Fraction of hosts unavailable at which the fleet is at least
    DEGRADED (fleet-wide pre-warm throttle)."""

    hosts_down_shedding: float = domains.real(0.75, gt=0.0, le=1.0)
    """Fraction of hosts unavailable at which the fleet starts shedding
    batch traffic at admission."""

    seed: int = domains.seed(config.DEFAULT_SEED)
    """Root seed; per-host fault substreams derive from it."""

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)
        if self.replication_factor > self.n_hosts:
            raise ConfigError(
                f"replication_factor must lie in 1..{self.n_hosts} "
                f"(n_hosts), got {self.replication_factor}"
            )
        if self.redispatch_backoff_cap_s < self.redispatch_backoff_base_s:
            raise ConfigError(
                "need redispatch_backoff_base_s <= redispatch_backoff_cap_s"
            )
        rungs = (
            self.hosts_down_pressured,
            self.hosts_down_degraded,
            self.hosts_down_shedding,
        )
        if not rungs[0] <= rungs[1] <= rungs[2]:
            raise ConfigError(
                "hosts-down thresholds must be non-decreasing "
                "(pressured <= degraded <= shedding)"
            )

    def backoff_s(self, redispatch: int) -> float:
        """Backoff before the ``redispatch``-th re-dispatch (1-based):
        capped exponential, ``base * 2**(k-1)`` up to the cap."""
        if redispatch < 1:
            raise ConfigError("redispatch attempts are 1-based")
        return min(
            self.redispatch_backoff_base_s * (2.0 ** (redispatch - 1)),
            self.redispatch_backoff_cap_s,
        )
