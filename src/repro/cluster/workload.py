"""Synthetic fleet workload for cluster experiments and benchmarks.

Small, fast functions (milliseconds of simulated work, tiny guests) so
the cluster experiments and the ``cluster_*`` bench kernels stay cheap:
what is under test is the fleet layer — routing, crash/kill semantics,
re-dispatch, replication — not the functions themselves.  Sizes differ
across functions so the bin-packing placement has real weights to
balance.
"""

from __future__ import annotations

from ..domains import CountDomain, RealDomain, check_value
from ..errors import ConfigError
from ..functions.base import FunctionModel, InputSpec
from ..platform.overload import RequestClass
from ..trace.synth import Band

__all__ = ["FLEET_SUITE", "fleet_function", "steady_requests"]


def fleet_function(name: str, guest_mb: int, base_s: float) -> FunctionModel:
    """One synthetic fleet function (four inputs around ``base_s``,
    matching Table I's four-input shape)."""
    return FunctionModel(
        name=name,
        description="synthetic cluster-fleet function",
        guest_mb=guest_mb,
        input_type="N",
        inputs=(
            InputSpec("small", t_dram_s=base_s, stall_share=0.02,
                      ws_fraction=0.05, variability=0.02),
            InputSpec("mid", t_dram_s=2.0 * base_s, stall_share=0.04,
                      ws_fraction=0.10, variability=0.02),
            InputSpec("large", t_dram_s=4.0 * base_s, stall_share=0.06,
                      ws_fraction=0.15, variability=0.02),
            InputSpec("xl", t_dram_s=8.0 * base_s, stall_share=0.08,
                      ws_fraction=0.20, variability=0.02),
        ),
        bands=(Band(0.10, 0.70), Band(0.90, 0.30)),
        n_epochs=3,
        store_fraction=0.2,
    )


FLEET_SUITE: tuple[FunctionModel, ...] = (
    fleet_function("fleet_api", 128, 0.002),
    fleet_function("fleet_render", 384, 0.005),
    fleet_function("fleet_etl", 256, 0.004),
    fleet_function("fleet_index", 128, 0.003),
)
"""Four unequal functions — enough for the packing to matter."""


def steady_requests(
    *,
    n_requests: int,
    duration_s: float,
    functions: tuple[FunctionModel, ...] = FLEET_SUITE,
    batch_every: int = 4,
) -> list[tuple[float, str, int, RequestClass]]:
    """A deterministic steady request stream over ``[0, duration_s)``.

    Requests round-robin over the functions and their inputs at evenly
    spaced arrivals; every ``batch_every``-th request is batch-class
    (sheddable), the rest are latency-class.  A negative or non-integer
    ``n_requests`` and a negative or non-finite ``duration_s`` raise
    :class:`~repro.errors.ConfigError`.
    """
    check_value(CountDomain(0), n_requests, "n_requests", ConfigError)
    check_value(RealDomain(0.0, lo_open=False), duration_s, "duration_s", ConfigError)
    requests: list[tuple[float, str, int, RequestClass]] = []
    step = duration_s / max(n_requests, 1)
    for i in range(n_requests):
        func = functions[i % len(functions)]
        req_class = (
            RequestClass.BATCH
            if batch_every > 0 and i % batch_every == batch_every - 1
            else RequestClass.LATENCY
        )
        requests.append(
            (i * step, func.name, i % len(func.inputs), req_class)
        )
    return requests
