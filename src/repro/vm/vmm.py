"""VM lifecycle management (the VMM glue).

Bundles the common sequences the experiments need: boot-and-run a function
in DRAM, capture a single-tier snapshot after execution (TOSS Step I),
record a REAP snapshot (working set of the recording invocation), and
restore by any strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import config, rng as rng_mod
from ..functions.base import FunctionModel
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from ..trace.events import InvocationTrace
from .microvm import ExecutionResult, MicroVM
from .snapshot import ReapSnapshot, SingleTierSnapshot
from .restore import (
    RestoreResult,
    lazy_restore,
    reap_restore,
    tiered_restore,
    warm_restore,
)

__all__ = ["BootResult", "VMM"]


@dataclass(frozen=True)
class BootResult:
    """A freshly booted VM after its first (all-DRAM) execution."""

    vm: MicroVM
    execution: ExecutionResult
    trace: InvocationTrace


class VMM:
    """Manages microVM lifecycles for one memory system."""

    def __init__(
        self,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        *,
        root_seed: int = config.DEFAULT_SEED,
    ) -> None:
        self.memory = memory
        self.root_seed = root_seed

    # -- TOSS Step I: initial execution --------------------------------------

    def boot_and_run(
        self, function: FunctionModel, input_index: int, invocation_seed: int = 0
    ) -> BootResult:
        """Cold-boot a DRAM-only guest and run one invocation (Step I)."""
        trace = function.trace(
            input_index, invocation_seed, root_seed=self.root_seed
        )
        rng = rng_mod.stream(self.root_seed, "boot", function.name)
        versions = rng.integers(
            1, 2**32, size=function.n_pages, dtype=np.uint64
        )
        vm = MicroVM(
            function.n_pages,
            memory=self.memory,
            page_versions=versions,
            label=f"boot:{function.name}",
        )
        execution = vm.execute(trace)
        return BootResult(vm=vm, execution=execution, trace=trace)

    # -- snapshot capture -------------------------------------------------------

    def capture_snapshot(self, vm: MicroVM, label: str = "") -> SingleTierSnapshot:
        """Capture the guest memory into a single-tier snapshot file."""
        return SingleTierSnapshot(
            n_pages=vm.n_pages,
            page_versions=vm.page_versions.copy(),
            label=label or vm.label,
        )

    def capture_reap_snapshot(
        self,
        function: FunctionModel,
        snapshot_input: int,
    ) -> ReapSnapshot:
        """Record a REAP snapshot: run once (invocation seed 0), capture
        memory + working set.

        The working set is every page touched during the recording
        invocation, captured with ``userfaultfd`` as REAP does; all later
        restores prefetch exactly this set (Section II-C).
        """
        boot = self.boot_and_run(function, snapshot_input, 0)
        ws_mask = np.zeros(function.n_pages, dtype=bool)
        ws_mask[boot.trace.working_set] = True
        base = self.capture_snapshot(
            boot.vm, label=f"{function.name}/snap-input-{snapshot_input}"
        )
        return ReapSnapshot(
            base=base, ws_mask=ws_mask, snapshot_input=snapshot_input
        )

    # -- restores ------------------------------------------------------------------

    def restore(self, snapshot, strategy: str) -> RestoreResult:
        """Restore a snapshot by the named strategy (``warm``, ``lazy``,
        ``reap`` or ``toss``).

        The REAP and tiered paths draw from this VMM's memory's fault
        hook; the warm and lazy paths take no injectable faults — lazy
        restore is the recovery anchor.
        """
        if strategy == "warm":
            base = snapshot.base if hasattr(snapshot, "base") else snapshot
            return warm_restore(base, memory=self.memory)
        if strategy == "lazy":
            base = snapshot.base if hasattr(snapshot, "base") else snapshot
            return lazy_restore(base, memory=self.memory)
        if strategy == "reap":
            return reap_restore(snapshot, memory=self.memory)
        if strategy == "toss":
            return tiered_restore(snapshot, memory=self.memory)
        raise ValueError(f"unknown restore strategy {strategy!r}")
