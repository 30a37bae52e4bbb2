"""FaaSnap-style system: ``mincore()``-captured working set.

FaaSnap (Ao et al., EuroSys'22) also prefetches a recorded working set,
but captures it by asking ``mincore()`` which snapshot pages are resident
after the recording invocation.  Kernel readahead leaves extra pages
resident, so the captured WS is *inflated* relative to the truly touched
set (Section III-C) — more prefetch bytes, longer setup, for pages the
function may never use.
"""

from __future__ import annotations

import numpy as np

from ..errors import SnapshotError
from ..functions.base import FunctionModel
from ..profiling.mincore import mincore_working_set
from ..vm.restore import RestoreResult
from ..vm.snapshot import ReapSnapshot
from .base import ServerlessSystem

__all__ = ["FaasnapSystem"]


class FaasnapSystem(ServerlessSystem):
    """Prefetch restore with a ``mincore()``-derived working set."""

    name = "faasnap"

    def __init__(
        self,
        function: FunctionModel,
        snapshot_input: int,
        **kwargs,
    ) -> None:
        super().__init__(function, **kwargs)
        if not 0 <= snapshot_input < function.n_inputs:
            raise SnapshotError(
                f"snapshot input {snapshot_input} outside the catalogue"
            )
        self.snapshot_input = snapshot_input
        # Recording run: lazy restore so the page cache sees real faults
        # (and real readahead), then capture residency via mincore().
        boot = self.vmm.boot_and_run(function, snapshot_input, 0)
        base = self.vmm.capture_snapshot(boot.vm, label=function.name)
        recording = self.vmm.restore(base, "lazy")
        recording.vm.execute(self._trace(snapshot_input, 0))
        ws_mask = mincore_working_set(recording.vm.page_cache)
        self.true_ws_pages = int(
            recording.vm.page_cache.demand_loaded_mask().sum()
        )
        self._snapshot = ReapSnapshot(
            base=base,
            ws_mask=np.asarray(ws_mask, dtype=bool),
            snapshot_input=snapshot_input,
        )

    @property
    def ws_pages(self) -> int:
        """Captured (inflated) working-set size."""
        return self._snapshot.ws_pages

    @property
    def inflation(self) -> float:
        """mincore WS size over the truly touched set (>= 1)."""
        if self.true_ws_pages == 0:
            return 1.0
        return self._snapshot.ws_pages / self.true_ws_pages

    def _invoke_restore(self) -> RestoreResult:
        """REAP-strategy restore with the inflated prefetch set."""
        return self.vmm.restore(self._snapshot, "reap")
