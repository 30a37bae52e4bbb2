"""Zero-fault equivalence: the all-zero FaultPlan is invisible.

Hooking ``FaultInjector(FaultPlan())`` to the memory every system runs on
routes every restore, storage access, and controller decision through the
fault plane — and must change nothing.  These regressions pin that on the
two headline artifacts: the Figure 7 setup-time experiment and the fleet
study.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.baselines import ReapSystem, TossSystem, VanillaLazy
from repro.experiments import common, fig7_setup_time, fleet_study
from repro.faults import FaultInjector, FaultPlan
from repro.functions import get_function
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM

FUNCTIONS = ["float_operation", "pyaes"]


@pytest.fixture
def zero_memory():
    """The default memory system hooked to a zero-plan injector."""
    return DEFAULT_MEMORY_SYSTEM.with_fault_hook(FaultInjector(FaultPlan()))


def test_fig7_setup_time_is_byte_identical_under_zero_plan(
    monkeypatch, zero_memory
):
    baseline = fig7_setup_time.run(function_names=FUNCTIONS)
    # ``run`` builds fresh systems on the hooked memory, in its own order,
    # instead of reusing the cached unhooked ones.
    monkeypatch.setattr(
        fig7_setup_time,
        "vanilla_cached",
        lambda name: VanillaLazy(get_function(name), memory=zero_memory),
    )
    monkeypatch.setattr(
        fig7_setup_time,
        "toss_cached",
        lambda name, inputs: TossSystem(
            get_function(name),
            profiling_inputs=inputs,
            convergence_window=common.CONVERGENCE_WINDOW,
            memory=zero_memory,
        ),
    )
    monkeypatch.setattr(
        fig7_setup_time,
        "reap_cached",
        lambda name, snapshot_input: ReapSystem(
            get_function(name), snapshot_input=snapshot_input, memory=zero_memory
        ),
    )
    zeroed = fig7_setup_time.run(function_names=FUNCTIONS)
    assert zero_memory.fault_hook._draws == {}  # the plane never consumed RNG
    assert zeroed.toss == baseline.toss
    assert zeroed.reap_min == baseline.reap_min
    assert zeroed.reap_avg == baseline.reap_avg
    assert zeroed.reap_max == baseline.reap_max
    assert zeroed.table.rows == baseline.table.rows


def test_fleet_study_is_byte_identical_under_zero_plan(monkeypatch, zero_memory):
    kwargs = dict(
        include_extended=False,
        requests_per_function=5,
        function_names=FUNCTIONS,
    )
    baseline = fleet_study.run(**kwargs)
    monkeypatch.setattr(
        fleet_study, "TossSystem", partial(TossSystem, memory=zero_memory)
    )
    zeroed = fleet_study.run(**kwargs)
    assert zero_memory.fault_hook._draws == {}
    assert zeroed.density == baseline.density
    assert zeroed.savings_fraction == baseline.savings_fraction
    assert zeroed.table.rows == baseline.table.rows
