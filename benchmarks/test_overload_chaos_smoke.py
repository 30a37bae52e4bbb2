"""Chaos-plus-overload smoke: the platform survives faults under guard.

The CI ``overload-smoke`` job runs this file alone.  Two checks:

* one packaged experiment (Figure 7) still completes under an injected
  SSD read-error storm with the overload layer's default config active —
  the resilience plumbing never changes what the experiments compute;
* the documented chaos-plus-burst scenario (``docs/modeling.md``,
  "Overload model") holds its acceptance floor: availability at least
  0.99 for admitted traffic, at most 20 % of batch traffic shed, every
  latency-class request served within deadline or via fallback, and the
  full degradation-ladder cycle visible in the ladder's transitions.
"""

from __future__ import annotations

from repro import faults
from repro.core.toss import TossConfig
from repro.experiments import fig7_setup_time
from repro.faults import FaultInjector, FaultPlan, StorageFaultSpec
from repro.functions.base import FunctionModel, InputSpec
from repro.platform import OverloadConfig, ServerlessPlatform
from repro.trace.synth import Band

AVAILABILITY_FLOOR = 0.99
BATCH_SHED_CEILING = 0.20

TINY = FunctionModel(
    name="tiny",
    description="smoke-scenario function",
    guest_mb=128,
    input_type="N",
    inputs=(
        InputSpec("small", t_dram_s=0.002, stall_share=0.02,
                  ws_fraction=0.05, variability=0.02),
        InputSpec("mid", t_dram_s=0.005, stall_share=0.04,
                  ws_fraction=0.10, variability=0.02),
        InputSpec("large", t_dram_s=0.010, stall_share=0.06,
                  ws_fraction=0.15, variability=0.02),
        InputSpec("xl", t_dram_s=0.020, stall_share=0.08,
                  ws_fraction=0.20, variability=0.02),
    ),
    bands=(Band(0.10, 0.70), Band(0.90, 0.30)),
    n_epochs=3,
    store_fraction=0.2,
)


def test_fig7_completes_under_chaos(benchmark, emit):
    plan = FaultPlan(ssd=StorageFaultSpec(read_error_rate=1e-4))

    def run():
        with faults.injected(plan):
            return fig7_setup_time.run(
                function_names=["float_operation", "pyaes"]
            )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("overload_chaos_fig7", result.table.render())
    # The experiment still yields the paper's directional result.
    assert result.max_reap_over_toss > 1.0


def run_burst_scenario():
    cfg = OverloadConfig(
        slo_factor=20.0,
        breaker_failures=3,
        breaker_cooldown_s=1.0,
        pressured_delay_s=0.010,
        degraded_delay_s=0.040,
        shedding_delay_s=0.120,
        delay_alpha=0.3,
    )
    platform = ServerlessPlatform(
        n_cores=2,
        toss_cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
        faults=FaultInjector(
            FaultPlan(ssd=StorageFaultSpec(read_error_rate=1e-3))
        ),
        overload=cfg,
    )
    platform.deploy(TINY)
    warmup = [(0.1 * i, "tiny", i % 4) for i in range(12)]
    background = [(0.5 * i, "tiny", 1, "batch") for i in range(24)]
    burst = [(2.0 + 0.001 * i, "tiny", 0) for i in range(60)]
    recovery = [(12.0 + 0.5 * i, "tiny", 0) for i in range(8)]
    platform.serve(warmup + background + burst + recovery)
    return platform


def test_chaos_burst_scenario_holds_floor(benchmark, emit):
    platform = benchmark.pedantic(
        run_burst_scenario, rounds=1, iterations=1
    )

    availability = platform.availability()
    batch_shed = platform.batch_shed_fraction()
    latency = [e for e in platform.log if e.request_class == "latency"]
    latency_ok = sum(
        1 for e in latency if not e.shed and not e.failed
        and (e.deadline_met or e.degraded)
    )
    transitions = [
        f"{old.name}->{new.name} @{at_s:.3f}s"
        for at_s, old, new in platform.overload.ladder.transitions
    ]
    lines = [
        "chaos + burst overload scenario (2 cores, SSD error storm 1e-3)",
        f"  requests submitted    : {len(platform.log)}",
        f"  availability          : {availability:.4f}"
        f"  (floor {AVAILABILITY_FLOOR})",
        f"  batch shed fraction   : {batch_shed:.4f}"
        f"  (ceiling {BATCH_SHED_CEILING})",
        f"  latency served OK     : {latency_ok}/{len(latency)}",
        f"  retries absorbed      : {platform.total_retries()}",
        "  ladder transitions    : " + ", ".join(transitions),
    ]
    emit("overload_chaos_smoke", "\n".join(lines))

    assert availability >= AVAILABILITY_FLOOR
    assert batch_shed <= BATCH_SHED_CEILING
    assert latency_ok == len(latency)
    # The full cycle up and back down is visible in the ladder's record.
    steps = {t.split(" @")[0] for t in transitions}
    assert {
        "HEALTHY->PRESSURED",
        "PRESSURED->DEGRADED",
        "DEGRADED->SHEDDING",
        "SHEDDING->DEGRADED",
        "DEGRADED->PRESSURED",
        "PRESSURED->HEALTHY",
    } <= steps
