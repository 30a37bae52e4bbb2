"""Concurrent-invocation scheduling with shared-resource contention.

The evaluation platform has 20 physical cores with hyperthreading off
(Section VI-E), so up to 20 invocations run truly in parallel; what they
share is memory bandwidth, SSD IOPS and the VMM's fault handlers.  The
scheduler runs ``C`` cold invocations of one system, collects their
resource demand vectors, and hands them to the event kernel's
:class:`~repro.sim.contention.EventScheduler`.

This class is now a thin compatibility shim: the batch semantics (launch
``C`` invocations at one instant, measure at the contention equilibrium)
live in :meth:`EventScheduler.run_synchronized`, which solves the same
fixed point the scheduler used to call directly — results are
byte-identical — and additionally replays the batch on the event loop to
record per-resource utilization.  Callers that want genuinely staggered
arrivals should use :attr:`Scheduler.engine` (``run_timeline``) directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..domains import CountDomain, check_value
from ..errors import SchedulerError
from ..memsim.bandwidth import ContentionModel
from ..memsim.storage import OPTANE_SSD_SPEC
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from ..baselines.base import ServerlessSystem
from ..sim.contention import EventScheduler, TimelineJob, TimelineResult

__all__ = ["ConcurrencyResult", "Scheduler"]


@dataclass(frozen=True)
class ConcurrencyResult:
    """Outcome of running C concurrent invocations of one system."""

    system: str
    concurrency: int
    exec_times_s: tuple[float, ...]
    setup_times_s: tuple[float, ...]
    inflation: dict[str, float]
    utilization: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def mean_exec_s(self) -> float:
        """Mean contended execution time across the invocations."""
        return sum(self.exec_times_s) / len(self.exec_times_s)


class Scheduler:
    """Runs concurrent invocation batches under contention.

    A compatibility facade over the event kernel: ``run_concurrent``
    returns numbers byte-identical to the pre-kernel analytic scheduler,
    because the kernel's synchronized-batch mode *is* the analytic solve.
    """

    def __init__(
        self,
        *,
        n_cores: int = 20,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
    ) -> None:
        check_value(CountDomain(1), n_cores, "n_cores", SchedulerError)
        self.n_cores = n_cores
        self.memory = memory
        # Experiments build a fresh Scheduler per run but replay the same
        # waves; the shared memo keys on the exact hardware fingerprint
        # and demand batch, so hits are bit-identical to cold solves.
        self.contention = ContentionModel(memory, OPTANE_SSD_SPEC, shared_memo=True)
        self.engine = EventScheduler(self.contention)

    def run_concurrent(
        self,
        system: ServerlessSystem,
        input_index: int,
        concurrency: int,
        *,
        seed_base: int = 0,
    ) -> ConcurrencyResult:
        """Execute ``concurrency`` cold invocations simultaneously.

        Each invocation gets a distinct seed (distinct allocation jitter),
        mirroring the paper's concurrent same-function load.  Raises if
        asked for more parallelism than there are cores: the evaluation
        never oversubscribes vCPUs.
        """
        if not 1 <= concurrency <= self.n_cores:
            raise SchedulerError(
                f"concurrency {concurrency} outside 1..{self.n_cores} cores"
            )
        # invoke_batch is contractually bit-identical to the scalar
        # per-seed invoke loop; eligible systems serve the whole cohort
        # through the vectorized batch engine (one restore, one flat
        # NumPy execution pass) instead of C coroutine replays.
        outcomes = system.invoke_batch(
            input_index, [seed_base + i for i in range(concurrency)]
        )
        demands = [o.execution.demand for o in outcomes]
        times, inflation = self.engine.run_synchronized(demands)
        return ConcurrencyResult(
            system=system.name,
            concurrency=concurrency,
            exec_times_s=tuple(times),
            setup_times_s=tuple(o.setup_time_s for o in outcomes),
            inflation=inflation,
            utilization=self.engine.utilization_summary(),
        )

    def run_timeline(self, jobs: list[TimelineJob]) -> TimelineResult:
        """Serve staggered arrivals on the event engine (no wave batching).

        Passthrough to :meth:`EventScheduler.run_timeline`: contention
        emerges from whoever overlaps on the timeline instead of being
        solved per-batch.
        """
        return self.engine.run_timeline(jobs)
