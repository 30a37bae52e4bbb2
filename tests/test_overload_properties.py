"""Property tests for the overload layer's conservation and liveness.

Three invariants that must hold for *every* request stream and
configuration, not just the tuned scenarios:

* conservation — every submitted request is accounted for exactly once
  (shed, failed, or served), and only batch-class traffic is ever shed;
* breaker liveness — a breaker never stays open forever: polling after
  the cool-down always half-opens it, and a succeeding probe closes it;
* ladder sanity — the health state stays on the ladder, moves one rung
  per observation, and always returns to HEALTHY after enough calm.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.toss import TossConfig
from repro.functions.base import FunctionModel, InputSpec
from repro.platform.overload import (
    BreakerState,
    CircuitBreaker,
    DegradationLadder,
    HealthState,
    OverloadConfig,
)
from repro.platform.server import ServerlessPlatform
from repro.trace.synth import Band

TINY = FunctionModel(
    name="tiny",
    description="property-test function",
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


@st.composite
def request_streams(draw):
    """Random small request streams with mixed priority classes."""
    n = draw(st.integers(min_value=1, max_value=12))
    stream = []
    for _ in range(n):
        arrival = draw(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
        )
        input_index = draw(st.integers(min_value=0, max_value=3))
        req_class = draw(st.sampled_from(["latency", "batch"]))
        stream.append((round(arrival, 4), "tiny", input_index, req_class))
    return stream


@st.composite
def guarded_configs(draw):
    """Random active overload configurations."""
    return OverloadConfig(
        max_queue_depth=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=4))
        ),
        max_queue_delay_s=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
            )
        ),
        max_function_depth=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=3))
        ),
        slo_factor=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=1.1, max_value=30.0, allow_nan=False),
            )
        ),
    )


class TestConservation:
    @settings(max_examples=15, deadline=None)
    @given(stream=request_streams(), cfg=guarded_configs())
    def test_every_request_accounted_exactly_once(self, stream, cfg):
        platform = ServerlessPlatform(
            n_cores=2,
            toss_cfg=TossConfig(
                convergence_window=3, min_profiling_invocations=3
            ),
            overload=cfg,
        )
        platform.deploy(TINY)
        log = platform.serve(stream)
        # One log entry per submitted request, each in exactly one bucket.
        assert len(log) == len(stream)
        shed = sum(1 for e in log if e.shed)
        failed = sum(1 for e in log if e.failed and not e.shed)
        served = sum(1 for e in log if not e.shed and not e.failed)
        assert shed + failed + served == len(stream)
        assert sum(e.shed for e in platform.log) == shed
        # Latency-class traffic is never shed, whatever the knobs say.
        assert all(e.request_class == "batch" for e in log if e.shed)
        # Class populations are conserved through sorting/normalisation.
        submitted_batch = sum(1 for r in stream if r[3] == "batch")
        assert (
            sum(1 for e in log if e.request_class == "batch")
            == submitted_batch
        )


class TestBreakerLiveness:
    @settings(max_examples=50, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=30),
        threshold=st.integers(min_value=1, max_value=5),
        cooldown=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    def test_breaker_never_stays_open_past_cooldown(
        self, outcomes, threshold, cooldown
    ):
        breaker = CircuitBreaker(threshold, cooldown)
        now = 0.0
        for success in outcomes:
            now += 0.1
            breaker.poll(now)
            breaker.record_outcome(success, now)
        # Resolve any in-flight probe; a failed one chains straight
        # through its fresh cool-down at this late poll time.
        end = now + cooldown + 1.0
        breaker.poll(end)
        if breaker.state is BreakerState.OPEN:
            # However the history went: one poll past the cool-down
            # half-opens the breaker ...
            breaker.poll(breaker.opened_at_s + breaker.cooldown_s)
            assert breaker.state is BreakerState.HALF_OPEN
        if breaker.state is BreakerState.HALF_OPEN:
            # ... and a recovering backend (one good probe) closes it
            # once the probe's finish timestamp is polled past.
            end += cooldown + 1.0
            breaker.record_outcome(True, end)
            breaker.poll(end)
        assert breaker.state is BreakerState.CLOSED or (
            breaker.state is BreakerState.OPEN
            and breaker.consecutive_failures >= threshold
        )


class TestLadderSanity:
    @settings(max_examples=50, deadline=None)
    @given(
        signals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_state_stays_on_ladder_and_recovers(self, signals):
        ladder = DegradationLadder(
            OverloadConfig(
                pressured_delay_s=0.05,
                degraded_delay_s=0.20,
                shedding_delay_s=0.80,
                degraded_fault_rate=0.5,
                pressured_capacity_fraction=0.9,
                fault_window=5,
                delay_alpha=0.5,
            )
        )
        previous = ladder.state
        for i, (delay, pressure, failed) in enumerate(signals):
            ladder.note_outcome(failed)
            moves = ladder.update(
                float(i), queue_delay_s=delay, capacity_pressure=pressure
            )
            # Always a legal rung, and at most one step per observation.
            assert HealthState.HEALTHY <= ladder.state <= HealthState.SHEDDING
            assert abs(int(ladder.state) - int(previous)) <= 1
            assert len(moves) <= 1
            previous = ladder.state
        # Calm signals always bring the platform back to HEALTHY.
        for j in range(20):
            ladder.note_outcome(False)
            ladder.update(
                1000.0 + j, queue_delay_s=0.0, capacity_pressure=0.0
            )
        assert ladder.state is HealthState.HEALTHY
        # The transition record is internally consistent: consecutive
        # steps chain (each from-state is the previous to-state).
        for (_, _, prev_to), (_, next_from, _) in zip(
            ladder.transitions, ladder.transitions[1:]
        ):
            assert prev_to is next_from
