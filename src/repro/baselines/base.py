"""Common interface for the systems under evaluation."""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Sequence

from .. import config
from ..functions.base import FunctionModel
from ..memsim.accounting import PerfCounters
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from ..obs import runtime as obs_runtime
from ..sim.batchexec import execute_cohort
from ..sim.timing import InvocationTiming
from ..vm.microvm import ExecutionResult, _observe_execute
from ..vm.restore import RestoreResult, _observe_restore
from ..vm.vmm import VMM

__all__ = ["SystemOutcome", "ServerlessSystem"]


@dataclass(frozen=True)
class SystemOutcome:
    """One invocation under one system."""

    system: str
    input_index: int
    seed: int
    setup_time_s: float
    execution: ExecutionResult

    @property
    def exec_time_s(self) -> float:
        """Uncontended execution time."""
        return self.execution.time_s

    @property
    def timing(self) -> InvocationTiming:
        """The setup/execution split as the kernel's shared timing record."""
        return InvocationTiming(setup_s=self.setup_time_s, exec_s=self.exec_time_s)

    @property
    def total_time_s(self) -> float:
        """Setup plus execution (the Figure 8 quantity)."""
        return self.timing.total_s


class ServerlessSystem(abc.ABC):
    """A system that serves invocations of one function.

    Subclasses set up their snapshot machinery in ``__init__`` (that is
    the offline/recording part) and name the restore each cold
    invocation performs in :meth:`_invoke_restore`.  :meth:`invoke`
    serves one invocation as that restore followed by an execute — each
    invocation restores fresh with a dropped page cache, as the
    evaluation methodology prescribes (Section VI-A).
    """

    name: str = "abstract"

    def __init__(
        self,
        function: FunctionModel,
        *,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        root_seed: int = config.DEFAULT_SEED,
    ) -> None:
        self.function = function
        self.memory = memory
        self.root_seed = root_seed
        self.vmm = VMM(memory, root_seed=root_seed)
        # Memo of batch-path execution values keyed by (input, seed).
        # Cold invocations are deterministic in exactly that key (plus
        # the system's frozen snapshot state), so replayed cohorts — the
        # Figure 9 sweep re-runs identical waves through fresh Schedulers
        # — rebuild their outcomes from stored values instead of
        # re-executing.  Only the one-restore path of invoke_batch reads
        # or writes it, so entries exist only for invocations with no
        # fault hook; observed or not, they hold the same values.
        self._cohort_memo: dict[tuple[int, int], tuple] = {}
        # The batch path's restore with its VM dropped (``vm=None``; the
        # per-page arrays are dead once the cohort ran) and the VM's
        # label: memo hits need the setup time and, under observation,
        # the phases and bytes for the restore span and the label for
        # the execute span.
        self._cohort_restore: tuple[RestoreResult, str] | None = None

    @abc.abstractmethod
    def _invoke_restore(self) -> RestoreResult:
        """The fresh restore every cold invocation starts from."""

    def invoke(self, input_index: int, seed: int = 0) -> SystemOutcome:
        """Serve one cold invocation: restore fresh, execute the trace."""
        restore = self._invoke_restore()
        execution = restore.vm.execute(self._trace(input_index, seed))
        return self._outcome(input_index, seed, restore.setup_time_s, execution)

    def invoke_batch(
        self, input_index: int, seeds: Sequence[int]
    ) -> list[SystemOutcome]:
        """Serve a synchronized cohort of cold invocations.

        Bit-identical to ``[self.invoke(input_index, s) for s in seeds]``
        — outcomes, spans and metrics — the contract every caller relies
        on.  Both run the same execute engine
        (:func:`repro.sim.batchexec.execute_cohort`); what differs is
        whether one restore may serve the whole cohort.  It may when the
        memory system carries no fault hook (restores draw from it and
        executions pay its slow-tier backpressure): the cohort then
        restores once and executes in one kernel call, each member on
        its own copy of the restored VM's state.
        Otherwise every seed restores and executes in turn, in the
        scalar loop's RNG order.  The one restore runs with observation
        suspended; under an active observation the cohort then emits,
        seed by seed, the restore span and the execute span the
        per-seed loop would have
        (:func:`repro.vm.restore._observe_restore`,
        :func:`repro.vm.microvm._observe_execute`).

        On the one-restore path, execution values are memoized per
        ``(input_index, seed)``: cold invocations are fully deterministic
        in that key once the system's snapshot state is frozen (true for
        every concrete system after ``__init__``), so replayed cohorts
        skip both the restore and the execution, and emit from the memo.
        Outcomes are still rebuilt fresh —
        :class:`~repro.memsim.accounting.PerfCounters` is mutable, so
        only its field values are cached; the frozen demand vectors and
        epoch records are shared, exactly as one execution's results
        share trace arrays.
        """
        if self.memory.fault_hook is not None:
            return [self.invoke(input_index, s) for s in seeds]
        memo = self._cohort_memo
        missing = [s for s in seeds if (input_index, s) not in memo]
        if missing or self._cohort_restore is None:
            with obs_runtime.suspended():
                restore = self._invoke_restore()
            traces = [self._trace(input_index, s) for s in missing]
            executions = execute_cohort(restore.vm, traces)
            for seed, execution in zip(missing, executions):
                c = execution.counters
                memo[(input_index, seed)] = (
                    (
                        c.cpu_time_s,
                        c.fast_stall_s,
                        c.slow_stall_s,
                        c.fault_stall_s,
                        c.fast_accesses,
                        c.slow_accesses,
                        c.minor_faults,
                        c.major_faults,
                    ),
                    execution.demand,
                    execution.epoch_records,
                    execution.label,
                )
            self._cohort_restore = (replace(restore, vm=None), restore.vm.label)
        restore, vm_label = self._cohort_restore
        outcomes: list[SystemOutcome] = []
        for seed in seeds:
            values, demand, records, label = memo[(input_index, seed)]
            execution = ExecutionResult(
                counters=PerfCounters(*values),
                demand=demand,
                epoch_records=records,
                label=label,
            )
            _observe_restore(restore)
            _observe_execute(vm_label, execution)
            outcomes.append(
                self._outcome(input_index, seed, restore.setup_time_s, execution)
            )
        return outcomes

    def _trace(self, input_index: int, seed: int):
        return self.function.trace(input_index, seed, root_seed=self.root_seed)

    def _outcome(
        self, input_index: int, seed: int, setup_time_s: float, execution
    ) -> SystemOutcome:
        return SystemOutcome(
            system=self.name,
            input_index=input_index,
            seed=seed,
            setup_time_s=setup_time_s,
            execution=execution,
        )
