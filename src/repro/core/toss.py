"""The TOSS controller: the four-step pipeline of Figure 4.

Step I    — first invocation runs in a DRAM-only guest; a single-tier
            snapshot is captured afterwards.
Step II   — subsequent invocations restore that snapshot and run with
            DAMON attached (~3 % overhead), folding each invocation's
            DAMON file into the unified access pattern until it converges.
Step III  — profiling analysis turns the pattern into a placement using
            the biggest input encountered during profiling.
Step IV   — the tiered snapshot is generated; later invocations restore
            it directly.  The re-profiling policy (Section V-E) watches
            for longer-than-profiled invocations and re-enters Step II
            when Equation 4 fires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .. import config, domains, faults as faults_mod, rng as rng_mod
from ..errors import (
    AnalysisError,
    DeadlineExceededError,
    SnapshotCorruptionError,
    SnapshotError,
)
from ..functions.base import FunctionModel
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from ..obs import runtime as obs_runtime
from ..profiling.damon import DamonConfig, DamonProfiler
from ..profiling.unified import UnifiedAccessPattern
from ..vm.restore import lazy_restore, recovering_restore
from ..vm.snapshot import SingleTierSnapshot, TieredSnapshot
from ..vm.vmm import VMM
from .analysis import SLOWDOWN_THRESHOLD, AnalysisResult, ProfilingAnalyzer
from .reprofile import ReprofilePolicy
from .telemetry import EventKind
from .tiering import build_tiered_snapshot

__all__ = ["Phase", "TossConfig", "InvocationOutcome", "TossController"]


class Phase(enum.Enum):
    """Lifecycle phase of a function under TOSS."""

    INITIAL = "initial"
    PROFILING = "profiling"
    TIERED = "tiered"


@dataclass(frozen=True)
class TossConfig:
    """Controller tuning (paper defaults from Sections V and VI-A)."""

    convergence_window: int = domains.count(config.CONVERGENCE_WINDOW, least=1)
    n_bins: int = domains.count(config.NUM_BINS, least=1)
    slowdown_threshold: float | None = domains.declare(SLOWDOWN_THRESHOLD, None)
    reprofile_bound: float = domains.real(config.REPROFILE_OVERHEAD_BOUND, gt=0.0)
    min_profiling_invocations: int = domains.count(3, least=2)
    """Two at least: the first profiling invocation warms DAMON up."""
    damon: DamonConfig = field(default_factory=DamonConfig)
    root_seed: int = domains.seed(config.DEFAULT_SEED)
    degrade_after_failures: int = domains.count(3, least=1)
    """Consecutive tiered-restore failures tolerated before the controller
    degrades the function back to the profiling phase (regenerating the
    tiered snapshot) instead of retrying the same files forever."""

    def __post_init__(self) -> None:
        domains.check_fields(self, AnalysisError)


@dataclass(frozen=True)
class InvocationOutcome:
    """What one invocation cost under TOSS."""

    phase: Phase
    input_index: int
    seed: int
    setup_time_s: float
    exec_time_s: float
    slow_fraction: float
    analysis_generated: bool = False
    retries: int = 0
    """Faulted snapshot reads recovered by retry during this restore."""
    failures: int = 0
    """Restore failures absorbed (each one served via fallback instead)."""
    degraded: bool = False
    """Served in a degraded mode: fallback restore or tier backpressure."""
    aborted: bool = False
    """The tiered restore was abandoned mid-setup because it would have
    blown the request's deadline; served via the lazy path instead, with
    the wasted setup time still billed."""

    @property
    def total_time_s(self) -> float:
        """Setup plus execution (the Figure 8 quantity)."""
        return self.setup_time_s + self.exec_time_s


class TossController:
    """Drives one function through the TOSS lifecycle."""

    def __init__(
        self,
        function: FunctionModel,
        *,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        cfg: TossConfig = TossConfig(),
        faults: "faults_mod.FaultInjector | None" = None,
    ) -> None:
        self.function = function
        self.faults = faults
        if faults is not None and memory.fault_hook is None:
            # Wire the slow-tier backpressure hook so degraded executions
            # and their accounting share one latency source.
            memory = memory.with_fault_hook(faults)
        self.memory = memory
        self.cfg = cfg
        self.vmm = VMM(memory, root_seed=cfg.root_seed)
        self.analyzer = ProfilingAnalyzer(memory, n_bins=cfg.n_bins)
        self.phase = Phase.INITIAL
        self.single_snapshot: SingleTierSnapshot | None = None
        self.tiered_snapshot: TieredSnapshot | None = None
        self.analysis: AnalysisResult | None = None
        self.reprofile = ReprofilePolicy(bound=cfg.reprofile_bound)
        self.profiling_cycles = 0
        self.restore_failures = 0
        self._consecutive_restore_failures = 0
        self._seq = 0
        self._reset_profiling_state()

    def _injector(self) -> "faults_mod.FaultInjector | None":
        """The active fault injector: explicit, else the installed default."""
        return faults_mod.resolve(self.faults)

    def _emit(self, kind: EventKind, **detail) -> None:
        obs = obs_runtime.active()
        if obs is not None:
            # Milestones land on the active span (or as trace-level
            # instants), so a trace viewer shows *why* an invocation took
            # the path it did next to how long it took.
            obs.tracer.event(f"telemetry/{kind.value}", attrs=detail)

    def _reset_profiling_state(self) -> None:
        """Start (or re-enter) the profiling phase.

        The DAMON instance is always fresh (a new attach), but the unified
        pattern is *kept* across re-profiling cycles — Section V-E
        enhances the existing pattern with the new invocations rather than
        forgetting what earlier profiling learned.  Only the convergence
        countdown restarts.
        """
        self.damon = DamonProfiler(
            self.function.n_pages,
            self.cfg.damon,
            rng=rng_mod.stream(self.cfg.root_seed, "damon", self.function.name,
                               self.profiling_cycles),
        )
        if self.profiling_cycles == 0:
            self.pattern = UnifiedAccessPattern(
                self.function.n_pages,
                convergence_window=self.cfg.convergence_window,
            )
        else:
            self.pattern.reset_stability()
        self.n_damon_invocations = 0
        self._biggest_exec_s = 0.0
        self._biggest_input = 0

    # -- public API ----------------------------------------------------------

    def invoke(
        self,
        input_index: int,
        seed: int | None = None,
        *,
        setup_budget_s: float | None = None,
    ) -> InvocationOutcome:
        """Serve one invocation, advancing the lifecycle as needed.

        ``setup_budget_s`` bounds the tiered restore's setup time (the
        deadline-enforcement hook): a tiered restore whose setup would
        exceed the budget is aborted and the invocation is served on the
        vanilla lazy path instead, with the aborted setup time billed.
        Initial and profiling invocations ignore the budget — they *are*
        the cheap path.
        """
        if seed is None:
            seed = self._seq
        self._seq += 1
        phase = self.phase
        obs = obs_runtime.active()
        if obs is None:
            return self._dispatch_invocation(phase, input_index, seed, setup_budget_s)
        with obs.tracer.span(
            f"invoke/{phase.value}",
            attrs={
                "function": self.function.name,
                "invocation": self._seq - 1,
                "input_index": input_index,
            },
        ) as span:
            outcome = self._dispatch_invocation(
                phase, input_index, seed, setup_budget_s
            )
            span.attrs["setup_s"] = outcome.setup_time_s
            span.attrs["exec_s"] = outcome.exec_time_s
            span.attrs["degraded"] = outcome.degraded
            if outcome.aborted:
                span.attrs["aborted"] = True
        self._observe_invocation(obs, phase.value, outcome)
        return outcome

    def _dispatch_invocation(
        self,
        phase: Phase,
        input_index: int,
        seed: int,
        setup_budget_s: float | None,
    ) -> InvocationOutcome:
        """Route one invocation to its lifecycle step (phase pre-read so
        the instrumented and plain paths pick identically)."""
        if phase is Phase.INITIAL:
            return self._initial_invocation(input_index, seed)
        if phase is Phase.PROFILING:
            return self._profiling_invocation(input_index, seed)
        return self._tiered_invocation(input_index, seed, setup_budget_s)

    def _observe_invocation(
        self,
        obs: obs_runtime.Observation,
        phase_label: str,
        outcome: InvocationOutcome,
    ) -> None:
        obs.metrics.histogram(
            "toss_invocation_seconds",
            "End-to-end invocation time (setup plus execution) by phase",
        ).observe(outcome.total_time_s, phase=phase_label)
        obs.metrics.counter(
            "toss_invocations_total",
            "Invocations served, by function and lifecycle phase",
        ).inc(function=self.function.name, phase=phase_label)

    def invoke_fallback(
        self, input_index: int, seed: int | None = None
    ) -> InvocationOutcome:
        """Serve one invocation on the vanilla lazy path, all-DRAM.

        The overload layer's short-circuit: an open circuit breaker or a
        DEGRADED platform serves requests from the intact single-tier
        snapshot without touching the tiered machinery at all — no
        profiling progress, no re-profiling signal, no keep-alive
        interaction.  Before the initial snapshot exists this delegates
        to the normal lifecycle (the initial invocation *is* the
        DRAM-only path)."""
        if self.single_snapshot is None:
            return self.invoke(input_index, seed)
        if seed is None:
            seed = self._seq
        self._seq += 1
        obs = obs_runtime.active()
        if obs is None:
            return self._fallback_invocation(input_index, seed)
        with obs.tracer.span(
            "invoke/fallback",
            attrs={
                "function": self.function.name,
                "invocation": self._seq - 1,
                "input_index": input_index,
                "degraded": True,
            },
        ) as span:
            outcome = self._fallback_invocation(input_index, seed)
            span.attrs["setup_s"] = outcome.setup_time_s
            span.attrs["exec_s"] = outcome.exec_time_s
        self._observe_invocation(obs, "fallback", outcome)
        return outcome

    def _fallback_invocation(self, input_index: int, seed: int) -> InvocationOutcome:
        assert self.single_snapshot is not None
        restore = lazy_restore(self.single_snapshot, memory=self.memory)
        trace = self.function.trace(input_index, seed, root_seed=self.cfg.root_seed)
        result = restore.vm.execute(trace)
        return InvocationOutcome(
            phase=self.phase,
            input_index=input_index,
            seed=seed,
            setup_time_s=restore.setup_time_s,
            exec_time_s=result.time_s,
            slow_fraction=0.0,
            degraded=True,
        )

    @property
    def slow_fraction(self) -> float:
        """Current slow-tier share (0 before a tiered snapshot exists)."""
        if self.tiered_snapshot is None:
            return 0.0
        return self.tiered_snapshot.slow_fraction

    # -- durability hooks -------------------------------------------------------

    def force_reprofile(self, reason: str) -> bool:
        """Degrade to the profiling phase, dropping the tiered files.

        The re-snapshot rung of the durability repair ladder: when the
        tiered copy is damaged beyond replica repair but the single-tier
        file is intact, the scrubber discards the tiered snapshot and the
        next invocations regenerate it through the ordinary profiling
        pipeline.  Returns False when there is nothing to regenerate from
        (no single-tier snapshot yet).
        """
        if self.single_snapshot is None:
            return False
        self._emit(
            EventKind.PHASE_DEGRADED,
            transition=f"{self.phase.value}->profiling",
            reason=reason,
        )
        self.tiered_snapshot = None
        self._consecutive_restore_failures = 0
        self.phase = Phase.PROFILING
        self._reset_profiling_state()
        return True

    def evict_snapshots(self, reason: str) -> None:
        """Discard every local snapshot file and restart the lifecycle.

        The last rung of the repair ladder: all local copies are damaged,
        so the function reboots cold (phase INITIAL) on its next
        invocation — either here, or on a re-replication target that
        adopts a surviving replica's state first.
        """
        self._emit(
            EventKind.PHASE_DEGRADED,
            transition=f"{self.phase.value}->initial",
            reason=reason,
        )
        self.single_snapshot = None
        self.tiered_snapshot = None
        self.analysis = None
        self._consecutive_restore_failures = 0
        self.phase = Phase.INITIAL
        self._reset_profiling_state()

    # -- Step I -----------------------------------------------------------------

    def _initial_invocation(self, input_index: int, seed: int) -> InvocationOutcome:
        boot = self.vmm.boot_and_run(self.function, input_index, seed)
        self.single_snapshot = self.vmm.capture_snapshot(
            boot.vm, label=self.function.name
        )
        self._track_biggest(input_index, boot.execution.time_s)
        self.phase = Phase.PROFILING
        self._emit(EventKind.INITIAL_EXECUTION, input_index=input_index)
        return InvocationOutcome(
            phase=Phase.INITIAL,
            input_index=input_index,
            seed=seed,
            setup_time_s=config.VM_STATE_LOAD_S,
            exec_time_s=boot.execution.time_s,
            slow_fraction=0.0,
        )

    # -- Step II ---------------------------------------------------------------

    def _profiling_invocation(self, input_index: int, seed: int) -> InvocationOutcome:
        if self.single_snapshot is None:
            raise SnapshotError(
                f"{self.function.name}: profiling phase entered before the "
                "initial single-tier snapshot was captured"
            )
        restore = self.vmm.restore(self.single_snapshot, "lazy")
        trace = self.function.trace(input_index, seed, root_seed=self.cfg.root_seed)
        result = restore.vm.execute(trace)
        exec_time = result.time_s * (1.0 + config.DAMON_OVERHEAD)
        snapshot = self.damon.profile(result.epoch_records)
        self.n_damon_invocations += 1
        injector = self._injector()
        samples_lost = (
            injector is not None
            and not injector.is_zero
            and injector.draw_sample_loss()
        )
        if samples_lost:
            # The DAMON output file never landed: the pattern cannot fold
            # this invocation in, so profiling extends by one invocation
            # instead of converging on partial data.
            self._emit(
                EventKind.PHASE_DEGRADED,
                transition="profiling-extended",
                reason="profiler-sample-loss",
            )
        elif self.n_damon_invocations > 1:
            # First DAMON file is the region-adaptation warm-up.
            self.pattern.update(snapshot)
        self._track_biggest(input_index, result.time_s)

        self._emit(
            EventKind.PROFILING_INVOCATION,
            input_index=input_index,
            stable=self.pattern.stable_invocations,
        )
        generated = False
        done_minimum = self.n_damon_invocations >= self.cfg.min_profiling_invocations
        if done_minimum and self.pattern.converged:
            self._emit(
                EventKind.PATTERN_CONVERGED,
                invocations=self.n_damon_invocations,
            )
            self._run_analysis()
            generated = True
        return InvocationOutcome(
            phase=Phase.PROFILING,
            input_index=input_index,
            seed=seed,
            setup_time_s=restore.setup_time_s,
            exec_time_s=exec_time,
            slow_fraction=0.0,
            analysis_generated=generated,
        )

    def _track_biggest(self, input_index: int, exec_time_s: float) -> None:
        if exec_time_s > self._biggest_exec_s:
            self._biggest_exec_s = exec_time_s
            self._biggest_input = input_index

    # -- Steps III & IV ----------------------------------------------------------

    def _run_analysis(self) -> None:
        if self.single_snapshot is None:
            raise SnapshotError(
                f"{self.function.name}: analysis requires the single-tier "
                "snapshot from the initial invocation"
            )
        profile_trace = self.function.trace(
            self._biggest_input,
            rng_mod.derive_seed(self.cfg.root_seed, "bin-profiling",
                                self.profiling_cycles) % (2**31),
            root_seed=self.cfg.root_seed,
        )
        self.analysis = self.analyzer.analyze(
            self.pattern,
            profile_trace,
            slowdown_threshold=self.cfg.slowdown_threshold,
        )
        self.tiered_snapshot = build_tiered_snapshot(
            self.single_snapshot,
            self.analysis,
            source_inputs=(self._biggest_input,),
            memory=self.memory,
        )
        full_slow = self.analysis.base_slowdown - 1.0 + sum(
            b.incremental_slowdown for b in self.analysis.bins
        )
        self.reprofile.record_profiling(
            self.n_damon_invocations,
            [b.incremental_slowdown for b in self.analysis.bins],
            latency_lri=self._biggest_exec_s,
            slowdown_full_slow=full_slow,
        )
        self.profiling_cycles += 1
        self.phase = Phase.TIERED
        self._emit(
            EventKind.SNAPSHOT_GENERATED,
            slow_fraction=round(self.analysis.slow_fraction, 4),
            cost=round(self.analysis.cost, 4),
            expected_slowdown=round(self.analysis.expected_slowdown, 4),
        )

    def _tiered_invocation(
        self,
        input_index: int,
        seed: int,
        setup_budget_s: float | None = None,
    ) -> InvocationOutcome:
        if self.tiered_snapshot is None:
            raise SnapshotError(
                f"{self.function.name}: tiered phase entered without a "
                "tiered snapshot"
            )
        snapshot = self.tiered_snapshot
        injector = self._injector()
        restore, fault = recovering_restore(
            snapshot,
            memory=self.memory,
            injector=injector,
            fallback_source=self.single_snapshot,
        )
        aborted = False
        if (
            setup_budget_s is not None
            and not restore.fallback
            and restore.setup_time_s > setup_budget_s
        ):
            # Deadline enforcement: this restore would blow the request's
            # budget.  Abort it — the setup time already spent (capped at
            # the budget) stays billed — and serve from the intact
            # single-tier file on the lazy path instead.
            if self.single_snapshot is None:
                raise DeadlineExceededError(
                    f"{self.function.name}: tiered restore needs "
                    f"{restore.setup_time_s:.4f}s against a "
                    f"{setup_budget_s:.4f}s budget and no single-tier "
                    "snapshot exists to fall back to"
                )
            aborted = True
            abort_cost_s = min(restore.setup_time_s, setup_budget_s)
            self._emit(
                EventKind.DEADLINE_ABORTED,
                setup_s=round(restore.setup_time_s, 6),
                budget_s=round(setup_budget_s, 6),
            )
            lazy = lazy_restore(self.single_snapshot, memory=self.memory)
            restore = replace(
                lazy,
                fallback=True,
                setup_time_s=abort_cost_s + lazy.setup_time_s,
                retries=restore.retries,
            )
        if restore.retries:
            self._emit(EventKind.RESTORE_RETRIED, retries=restore.retries)
        if restore.backpressure > 1.0:
            self._emit(
                EventKind.TIER_BACKPRESSURE,
                multiplier=round(restore.backpressure, 4),
            )
        failures = 0
        if fault is not None:
            failures = 1
            self.restore_failures += 1
            self._consecutive_restore_failures += 1
            self._emit(
                EventKind.FALLBACK_RESTORE,
                error=type(fault).__name__,
                failures=self._consecutive_restore_failures,
            )
        else:
            self._consecutive_restore_failures = 0

        trace = self.function.trace(input_index, seed, root_seed=self.cfg.root_seed)
        result = restore.vm.execute(trace)
        degraded = restore.fallback or restore.backpressure > 1.0
        if not restore.fallback:
            # Fallback executions run all-DRAM with SSD fault storms;
            # their latency says nothing about the tiered placement, so
            # they are excluded from the re-profiling signal.
            self.reprofile.observe(result.time_s)
        self._emit(EventKind.TIERED_INVOCATION, input_index=input_index)

        # Degradation transition: unrecoverable corruption (the tier files
        # stay damaged) or repeated transient failures send the function
        # back to profiling, which regenerates the tiered snapshot from
        # the intact single-tier file.
        corrupted = isinstance(fault, SnapshotCorruptionError)
        if corrupted or (
            self._consecutive_restore_failures >= self.cfg.degrade_after_failures
        ):
            self._emit(
                EventKind.PHASE_DEGRADED,
                transition="tiered->profiling",
                reason="snapshot-corruption" if corrupted else "repeated-failures",
                failures=self._consecutive_restore_failures,
            )
            self.tiered_snapshot = None
            self._consecutive_restore_failures = 0
            self.phase = Phase.PROFILING
            self._reset_profiling_state()
        elif self.reprofile.should_reprofile:
            # Re-enter the profiling phase; the next invocations enhance
            # the pattern and regenerate the snapshot (Section V-E).
            self._emit(
                EventKind.REPROFILE_TRIGGERED,
                iterations=self.reprofile.iterations,
            )
            self.phase = Phase.PROFILING
            self._reset_profiling_state()
        return InvocationOutcome(
            phase=Phase.TIERED,
            input_index=input_index,
            seed=seed,
            setup_time_s=restore.setup_time_s,
            exec_time_s=result.time_s,
            slow_fraction=0.0 if restore.fallback else snapshot.slow_fraction,
            retries=restore.retries,
            failures=failures,
            degraded=degraded,
            aborted=aborted,
        )
