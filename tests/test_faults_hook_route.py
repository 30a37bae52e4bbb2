"""One way in for the fault injector: the memory system's fault hook.

A restore, the execution it maps, the controller and the platform's clock
all read ``memory.fault_hook``, so one injector on one memory drives every
fault decision of a setup — nothing else can disagree with it.  (The
restore-level outage and fallback cases on a hooked memory live in
``test_faults_restore.py``.)
"""

from __future__ import annotations

import pytest

from repro.baselines import TossSystem
from repro.core.toss import TossConfig
from repro.faults import FaultInjector, FaultPlan, TierFaultSpec
from repro.functions import get_function
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM
from repro.obs.runtime import observing
from repro.platform.server import ServerlessPlatform


def test_toss_restore_reports_the_backpressure_its_execution_pays():
    # The window opens after profiling, so both systems place identically.
    memory = DEFAULT_MEMORY_SYSTEM.with_fault_hook(
        FaultInjector(
            FaultPlan(
                tier=TierFaultSpec(backpressure_windows=((100.0, 9e9, 4.0),))
            )
        )
    )
    pyaes = get_function("pyaes")
    faulted = TossSystem(pyaes, memory=memory)
    clean = TossSystem(pyaes)
    memory.fault_hook.advance_to(100.0)
    with observing() as obs:
        slow = faulted.invoke(3, 0).execution.counters
    nominal = clean.invoke(3, 0).execution.counters
    (restore,) = [s for s in obs.tracer.finished() if s.name == "restore/toss"]
    assert restore.attrs["backpressure"] == 4.0
    assert slow.slow_stall_s == pytest.approx(4.0 * nominal.slow_stall_s)


class _ClockLog(FaultInjector):
    """An injector that records every clock move."""

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__(plan)
        self.moves: list[float] = []

    def advance_to(self, t_s: float) -> None:
        self.moves.append(t_s)
        super().advance_to(t_s)


def test_platform_advances_the_hooked_injectors_clock(tiny_function):
    injector = _ClockLog(FaultPlan())
    platform = ServerlessPlatform(
        n_cores=1,
        memory=DEFAULT_MEMORY_SYSTEM.with_fault_hook(injector),
        toss_cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
    )
    platform.deploy(tiny_function)
    log = platform.serve([(0.01 * i, "tiny", 3) for i in range(12)])
    assert injector.moves == [e.start_s for e in log]
    assert injector.now == log[-1].start_s > 0.0
