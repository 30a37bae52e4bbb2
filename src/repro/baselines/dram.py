"""Warm all-DRAM reference system."""

from __future__ import annotations

from ..functions.base import FunctionModel
from ..vm.restore import RestoreResult
from .base import ServerlessSystem

__all__ = ["DramBaseline"]


class DramBaseline(ServerlessSystem):
    """Everything resident in the fast tier, zero setup.

    This is the idealised keep-alive case Figures 8 and 9 normalise
    against: no snapshot loading, no page faults, DRAM latency only.
    """

    name = "dram"

    def __init__(self, function: FunctionModel, **kwargs) -> None:
        super().__init__(function, **kwargs)
        boot = self.vmm.boot_and_run(function, 0, 0)
        self._snapshot = self.vmm.capture_snapshot(boot.vm, label=function.name)

    def _invoke_restore(self) -> RestoreResult:
        """Warm restore: everything resident in DRAM, no setup."""
        return self.vmm.restore(self._snapshot, "warm")
