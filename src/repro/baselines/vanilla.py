"""Stock Firecracker lazy snapshot restore."""

from __future__ import annotations

from ..functions.base import FunctionModel
from ..vm.restore import RestoreResult
from .base import ServerlessSystem

__all__ = ["VanillaLazy"]


class VanillaLazy(ServerlessSystem):
    """Firecracker's shipped snapshot path (Section II-A).

    Setup memory-maps the snapshot file; guest pages arrive on demand
    through the host page cache (readahead included), so the execution
    pays major faults on first touches.  The page cache is dropped
    between invocations per the evaluation methodology.
    """

    name = "vanilla"

    def __init__(self, function: FunctionModel, **kwargs) -> None:
        super().__init__(function, **kwargs)
        boot = self.vmm.boot_and_run(function, 0, 0)
        self._snapshot = self.vmm.capture_snapshot(boot.vm, label=function.name)

    def _invoke_restore(self) -> RestoreResult:
        """Lazy restore: pages come in through the host page cache."""
        return self.vmm.restore(self._snapshot, "lazy")
