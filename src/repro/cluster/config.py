"""Cluster fleet configuration.

One frozen config object tunes the whole fault-tolerant fleet layer:
how many hosts, how widely tiered snapshots are replicated, how killed
or unroutable requests are re-dispatched (bounded attempts with capped
exponential backoff), how quickly a crashed host's snapshots are
re-placed onto a surviving host, and where the fleet-wide degradation
ladder's rungs sit as a function of the fraction of hosts down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

from .. import config
from ..errors import ConfigError

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning for a :class:`~repro.cluster.fleet.ClusterPlatform`."""

    n_hosts: int = 4
    """Hosts in the fleet, each running its own deterministic platform."""

    replication_factor: int = 1
    """Hosts holding each function's snapshots.  1 means a single copy
    (a host crash orphans it until re-placement); >= 2 gives the router
    live replicas to fail over to."""

    cores_per_host: int = 4
    """vCPUs per host (each host is an independent core pool)."""

    max_redispatch_attempts: int = 3
    """Re-dispatches a request may consume (after its first dispatch)
    before the cluster sheds it with a typed
    :class:`~repro.errors.ClusterError` outcome."""

    redispatch_backoff_base_s: float = 0.05
    """Backoff before the first re-dispatch; doubles per attempt."""

    redispatch_backoff_cap_s: float = 0.4
    """Ceiling on the per-attempt re-dispatch backoff."""

    re_replication_delay_s: float = 0.5
    """Detection-plus-copy delay before a crashed host's snapshots are
    re-placed onto a replacement host (the copy lands this long after
    the crash)."""

    hosts_down_pressured: float = 0.25
    """Fleet ladder: fraction of hosts unavailable at which the fleet is
    at least PRESSURED."""

    hosts_down_degraded: float = 0.50
    """Fraction of hosts unavailable at which the fleet is at least
    DEGRADED (fleet-wide pre-warm throttle)."""

    hosts_down_shedding: float = 0.75
    """Fraction of hosts unavailable at which the fleet starts shedding
    batch traffic at admission."""

    seed: int = config.DEFAULT_SEED
    """Root seed; per-host fault substreams derive from it."""

    def __post_init__(self) -> None:
        # Every field is a finite number; one with an integer default
        # must be an integer (a bool is neither).
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if isinstance(self.__dataclass_fields__[name].default, int):
                if not isinstance(value, Integral):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n_hosts < 1:
            raise ConfigError("a cluster needs at least one host")
        if not 1 <= self.replication_factor <= self.n_hosts:
            raise ConfigError(
                f"replication_factor must lie in 1..{self.n_hosts} "
                f"(n_hosts), got {self.replication_factor}"
            )
        if self.cores_per_host < 1:
            raise ConfigError("hosts need at least one core")
        if self.max_redispatch_attempts < 0:
            raise ConfigError("max_redispatch_attempts must be non-negative")
        if self.redispatch_backoff_base_s <= 0 or (
            self.redispatch_backoff_cap_s < self.redispatch_backoff_base_s
        ):
            raise ConfigError(
                "need 0 < redispatch_backoff_base_s <= redispatch_backoff_cap_s"
            )
        if self.re_replication_delay_s < 0:
            raise ConfigError("re_replication_delay_s must be non-negative")
        rungs = (
            self.hosts_down_pressured,
            self.hosts_down_degraded,
            self.hosts_down_shedding,
        )
        if not all(0.0 < r <= 1.0 for r in rungs):
            raise ConfigError("hosts-down thresholds must lie in (0, 1]")
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
