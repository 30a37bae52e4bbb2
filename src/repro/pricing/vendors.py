"""Vendor bundle pricing models (Section II-D).

Cloud vendors sell vCPU+memory bundles in fixed memory sizes (multiples of
128 MB) billed per unit of storage per unit of time: Lambda rounds billing
to 1 ms, Cloud Functions to 100 ms.  The rates below are relative units —
only ratios matter for the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import config, domains
from ..errors import ConfigError

__all__ = ["VendorPlan", "AWS_LAMBDA", "bundle_mb"]


def bundle_mb(required_mb: float) -> int:
    """Smallest vendor bundle (multiple of 128 MB) covering a requirement."""
    if required_mb <= 0:
        raise ConfigError("memory requirement must be positive")
    return config.MEMORY_BUNDLE_MB * math.ceil(
        required_mb / config.MEMORY_BUNDLE_MB
    )


@dataclass(frozen=True)
class VendorPlan:
    """A single-tier vendor pricing plan.

    ``rate_per_mb_ms`` is the price per MB per millisecond;
    ``billing_quantum_ms`` is the granularity the duration is rounded up
    to; ``per_request`` is the flat per-invocation charge.
    """

    name: str
    rate_per_mb_ms: float = domains.real(gt=0.0)
    billing_quantum_ms: float = domains.real(gt=0.0)
    per_request: float = domains.real(0.0, ge=0.0)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)

    def billable_ms(self, duration_s: float) -> float:
        """Duration rounded up to the billing quantum, in ms."""
        if duration_s < 0:
            raise ConfigError("duration must be non-negative")
        ms = duration_s * 1e3
        quanta = math.ceil(ms / self.billing_quantum_ms) if ms > 0 else 1
        return quanta * self.billing_quantum_ms

    def invocation_cost(self, memory_mb: float, duration_s: float) -> float:
        """Single-tier bill for one invocation on this plan."""
        mb = bundle_mb(memory_mb)
        return (
            mb * self.billable_ms(duration_s) * self.rate_per_mb_ms
            + self.per_request
        )


AWS_LAMBDA = VendorPlan(
    name="aws-lambda", rate_per_mb_ms=1.0, billing_quantum_ms=1.0
)
"""Lambda-style: any 128 MB multiple, billed per 1 ms."""
