"""TOSS in its steady (tiered) state, for head-to-head sweeps.

Experiments mostly compare the systems *after* their offline phases, so
this wrapper drives a :class:`~repro.core.toss.TossController` through the
profiling phase with a chosen mix of inputs and then serves invocations
from the tiered snapshot.  The two snapshot variants the evaluation uses
(Section VI-A) are covered by ``profiling_inputs``:

* ``(3,)`` — the "input IV only" snapshot;
* ``(0, 1, 2, 3)`` — the "all inputs" snapshot.
"""

from __future__ import annotations

import itertools

from ..core.toss import Phase, TossConfig, TossController
from ..errors import AnalysisError
from ..functions.base import FunctionModel
from ..vm.restore import RestoreResult
from .base import ServerlessSystem

__all__ = ["TossSystem"]

MAX_PROFILING_INVOCATIONS = 400
"""Invocations after which profiling that has not converged is an error."""


class TossSystem(ServerlessSystem):
    """TOSS with a fully generated tiered snapshot."""

    name = "toss"

    def __init__(
        self,
        function: FunctionModel,
        *,
        profiling_inputs: tuple[int, ...] = (0, 1, 2, 3),
        convergence_window: int = 8,
        slowdown_threshold: float | None = None,
        **kwargs,
    ) -> None:
        super().__init__(function, **kwargs)
        if not profiling_inputs:
            raise AnalysisError("need at least one profiling input")
        cfg = TossConfig(
            convergence_window=convergence_window,
            slowdown_threshold=slowdown_threshold,
            root_seed=self.root_seed,
        )
        self.controller = TossController(function, memory=self.memory, cfg=cfg)
        inputs = itertools.cycle(profiling_inputs)
        for _ in range(MAX_PROFILING_INVOCATIONS):
            outcome = self.controller.invoke(next(inputs))
            if outcome.analysis_generated or self.controller.phase is Phase.TIERED:
                break
        if self.controller.phase is not Phase.TIERED:
            raise AnalysisError(
                f"{function.name}: profiling did not converge within "
                f"{MAX_PROFILING_INVOCATIONS} invocations"
            )

    # -- introspection -------------------------------------------------------

    @property
    def analysis(self):
        """The profiling-analysis result behind the tiered snapshot."""
        return self.controller.analysis

    @property
    def tiered_snapshot(self):
        """The generated tiered snapshot."""
        return self.controller.tiered_snapshot

    @property
    def slow_fraction(self) -> float:
        """Slow-tier share of the placement (Table II)."""
        return self.controller.slow_fraction

    # -- serving ----------------------------------------------------------------

    def _invoke_restore(self) -> RestoreResult:
        """Tiered restore from the generated snapshot.

        Bypasses the controller's re-profiling bookkeeping so sweeps see a
        fixed snapshot; use the controller directly to exercise Section
        V-E's adaptation.
        """
        return self.vmm.restore(self.tiered_snapshot, "toss")
