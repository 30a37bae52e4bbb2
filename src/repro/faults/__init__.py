"""Deterministic fault injection for the restore/serving stack.

The fault plane has two halves: :class:`FaultPlan` (declarative,
per-domain fault specs) and :class:`FaultInjector` (seeded decisions plus
injection counters).  An injector reaches the stack one way: as the
fault hook of the :class:`~repro.memsim.tiers.MemorySystem` the
components run on (``memory.with_fault_hook(injector)``).  Restores,
executions, the controller, the platform's clock and the durability
plane all read that one hook, so a slow-tier window reaches the restore
and the execution it maps through the same device model.

Invariant: the all-zero plan is the identity.  A memory hooked to
``FaultInjector(FaultPlan())`` produces results bit-identical to an
unhooked one — asserted by ``tests/test_faults_equivalence.py``.
"""

from __future__ import annotations

from .injector import FaultInjector, RetryOutcome
from .plan import (
    ZERO_PLAN,
    BitRotSpec,
    FaultPlan,
    HostFaultSpec,
    ProfilerFaultSpec,
    SnapshotFaultSpec,
    StorageFaultSpec,
    TierFaultSpec,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "RetryOutcome",
    "StorageFaultSpec",
    "TierFaultSpec",
    "SnapshotFaultSpec",
    "ProfilerFaultSpec",
    "HostFaultSpec",
    "BitRotSpec",
    "ZERO_PLAN",
]
