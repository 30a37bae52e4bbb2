"""REAP: Record-and-Prefetch (Ustiugov et al., ASPLOS'21).

REAP records the working set of a single invocation with ``userfaultfd``
and, on every later restore, prefetches exactly those pages sequentially
from a compact WS file and pre-populates their page-table entries.  Pages
outside the recorded WS are served one-by-one through the userfaultfd
handler — no readahead — which is where the input-sensitivity pathologies
of Section III-B come from.
"""

from __future__ import annotations

from ..errors import SnapshotError
from ..functions.base import FunctionModel
from ..vm.restore import RestoreResult
from ..vm.snapshot import ReapSnapshot
from .base import ServerlessSystem

__all__ = ["ReapSystem"]


class ReapSystem(ServerlessSystem):
    """REAP with the working set recorded from ``snapshot_input``.

    Figure 3/7/8 sweep ``snapshot_input`` against the execution input;
    "REAP Best" uses the same input for both, "REAP Worst" records with
    input I and executes input IV.
    """

    name = "reap"

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
        self._snapshot: ReapSnapshot = self.vmm.capture_reap_snapshot(
            function, snapshot_input
        )

    @property
    def ws_pages(self) -> int:
        """Recorded working-set size (drives REAP's setup time)."""
        return self._snapshot.ws_pages

    def _invoke_restore(self) -> RestoreResult:
        """REAP restore: WS prefetch now, uffd for the rest on first touch."""
        return self.vmm.restore(self._snapshot, "reap")
