"""Shared-resource contention for concurrent invocations (Figure 9).

When ``C`` invocations run at once they share four throughput-limited
resources:

* slow-tier read operations (Optane read throughput),
* slow-tier write operations (Optane's much lower write throughput),
* the SSD's random-read IOPS (demand page faults), and
* the VMM's userfaultfd handler capacity (REAP's fault service path).

Each resource is modelled as an M/M/1-style queue: at utilisation ``rho``
the service latency inflates by ``1 / (1 - rho)`` (clamped).  Because
inflating stalls lengthens runs, which lowers the offered rate, the solver
iterates the coupled system to a damped fixed point.

The fast tier is tracked by byte bandwidth; at 100 GB/s it has ample
headroom at the paper's 20-way peak load, which is exactly why the DRAM
baseline scales flat in Figure 9 while PMEM-heavy placements do not.

Since the event kernel (:mod:`repro.sim`) landed, this module plays two
roles: the damped fixed point remains the *equilibrium law* — the answer
for a closed batch launched at one instant — while
:attr:`ContentionModel.capacities` hands the same hardware description
to the discrete-event engine
(:class:`repro.sim.contention.EventScheduler`), which replays a batch's
per-resource occupancy and lets staggered jobs contend through the
schedule itself.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from operator import truediv
from typing import Sequence

import numpy as np
import numpy.typing as npt

from .. import config, domains
from ..errors import ConfigError
from ..obs import profile as profile_mod
from ..obs import runtime as obs_runtime
from .tiers import MemorySystem
from .storage import StorageSpec

__all__ = ["TierDemand", "ContentionModel", "RESOURCES"]

RESOURCES = ("fast", "slow_read", "slow_write", "ssd", "uffd")
"""Names of the shared resources, in reporting order."""

MAX_ITERATIONS = 200
"""Fixed-point iterations before the solver stops without converging."""

TOLERANCE = 1e-9
"""Largest relative change of any invocation time that counts as converged."""

DAMPING = 0.5
"""Weight of the new inflation factor in each geometric damping step."""


@dataclass(frozen=True)
class TierDemand:
    """One invocation's resource footprint for the contention fixed point.

    ``*_stall_s`` is the time the *uncontended* run spends waiting on that
    resource; ``*_ops``/``fast_bytes`` is the quantity of work offered to
    it.  ``cpu_time_s`` is never inflated (each invocation owns a core).
    """

    cpu_time_s: float = domains.real(ge=0.0)
    fast_stall_s: float = domains.real(0.0, ge=0.0)
    fast_bytes: float = domains.real(0.0, ge=0.0)
    slow_read_stall_s: float = domains.real(0.0, ge=0.0)
    slow_read_ops: float = domains.real(0.0, ge=0.0)
    slow_write_stall_s: float = domains.real(0.0, ge=0.0)
    slow_write_ops: float = domains.real(0.0, ge=0.0)
    ssd_stall_s: float = domains.real(0.0, ge=0.0)
    ssd_ops: float = domains.real(0.0, ge=0.0)
    uffd_stall_s: float = domains.real(0.0, ge=0.0)
    uffd_ops: float = domains.real(0.0, ge=0.0)

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)

    @property
    def nominal_time_s(self) -> float:
        """Uncontended end-to-end time."""
        return (
            self.cpu_time_s
            + self.fast_stall_s
            + self.slow_read_stall_s
            + self.slow_write_stall_s
            + self.ssd_stall_s
            + self.uffd_stall_s
        )

    def _stalls_and_work(self) -> dict[str, tuple[float, float]]:
        # Built once per instance: the solver reads this every fixed-point
        # iteration and the replay reads it at start and finish, so the
        # dict is cached on the (frozen) instance.  It is not a declared
        # field, so eq/hash — and hence solver memo keys — ignore it.
        cached = self.__dict__.get("_work")
        if cached is None:
            cached = {
                "fast": (self.fast_stall_s, self.fast_bytes),
                "slow_read": (self.slow_read_stall_s, self.slow_read_ops),
                "slow_write": (self.slow_write_stall_s, self.slow_write_ops),
                "ssd": (self.ssd_stall_s, self.ssd_ops),
                "uffd": (self.uffd_stall_s, self.uffd_ops),
            }
            object.__setattr__(self, "_work", cached)
        return cached


class ContentionModel:
    """Damped fixed-point solver for shared-resource queueing."""

    #: Process-wide solve memo shared by models constructed with
    #: ``shared_memo=True``.  Keyed by the full hardware-and-solver
    #: fingerprint plus the exact demand batch, so a hit is guaranteed to
    #: come from an identically parameterised solve — bit-identical by
    #: construction.  The platform layer opts in (every fresh
    #: ``Scheduler`` re-solves the same Figure 9 waves); models built
    #: directly (including the ``contention_solve`` benchmark's
    #: fresh-model cold solves) stay isolated by default.
    _SHARED_SOLVE_CACHE: OrderedDict[
        tuple, tuple[list[float], dict[str, float]]
    ] = OrderedDict()
    _SHARED_SOLVE_CACHE_MAX = 4096

    def __init__(
        self,
        memory: MemorySystem,
        ssd: StorageSpec,
        *,
        shared_memo: bool = False,
    ) -> None:
        self.memory = memory
        self.ssd = ssd
        self._capacity = {
            "fast": memory.fast.bandwidth_bps,
            "slow_read": memory.slow.read_ops_cap,
            "slow_write": memory.slow.write_ops_cap,
            "ssd": ssd.random_read_iops,
            "uffd": config.UFFD_HANDLER_OPS_CAP,
        }
        # Fixed-point results memoised on the exact demand batch.  The
        # platform re-solves identical waves constantly (Figure 9 replays
        # one batch per concurrency level through four systems; the fleet
        # study replays per-function waves), and ``TierDemand`` is frozen,
        # so the batch tuple itself is the key — exact, not quantised,
        # which is what keeps cached results bit-identical to fresh ones.
        self._solve_cache: OrderedDict[
            tuple[TierDemand, ...], tuple[list[float], dict[str, float]]
        ] = OrderedDict()
        self.solve_cache_max = 4096
        self.solve_cache_hits = 0
        # The fingerprint covers everything _solve_uncached reads that
        # varies between models: the per-resource capacities derive from
        # the tier specs and the SSD spec.
        self._shared_key: tuple | None = None
        if shared_memo:
            self._shared_key = (memory.fast, memory.slow, memory.middle, ssd)

    @property
    def capacities(self) -> dict[str, float]:
        """Per-resource service capacities (ops/s; bytes/s for ``fast``).

        The event kernel (:class:`repro.sim.contention.EventScheduler`)
        divides offered rates by these to get each resource's occupancy
        — one hardware description, two execution modes.
        """
        return dict(self._capacity)

    def capacity_vector(self) -> npt.NDArray[np.float64]:
        """Per-resource capacities as a float64 vector in
        :data:`RESOURCES` order — the array twin of :attr:`capacities`,
        for the batch replay path."""
        return np.array(
            [self._capacity[r] for r in RESOURCES], dtype=np.float64
        )

    @staticmethod
    def demand_work_matrix(
        demands: Sequence[TierDemand],
    ) -> npt.NDArray[np.float64]:
        """Offered-work matrix ``(n_demands, len(RESOURCES))``.

        Row ``i`` holds demand ``i``'s per-resource work quantities
        (bytes for ``fast``, operations elsewhere) in :data:`RESOURCES`
        order — the cohort-shaped entry point the vectorized batch
        replay and admission paths read instead of walking
        ``_stalls_and_work`` dicts per demand.
        """
        out = np.empty((len(demands), len(RESOURCES)), dtype=np.float64)
        for i, demand in enumerate(demands):
            work = demand._stalls_and_work()
            for j, r in enumerate(RESOURCES):
                out[i, j] = work[r][1]
        return out

    @staticmethod
    def _inflation(rho: float) -> float:
        """M/M/1 latency inflation, clamped to ``MAX_QUEUE_INFLATION``."""
        rho = min(rho, 0.99)
        return min(config.MAX_QUEUE_INFLATION, 1.0 / (1.0 - rho))

    def _solve(
        self, demands: list[TierDemand]
    ) -> tuple[list[float], dict[str, float]]:
        """Memoising front of the fixed point (LRU on the exact batch).

        Returns fresh containers on hits so callers can never corrupt a
        cached result; cached and freshly-solved outputs are bit-identical
        because the key is the exact demand tuple.
        """
        key = tuple(demands)
        cached = self._solve_cache.get(key)
        if cached is not None:
            self._solve_cache.move_to_end(key)
            self.solve_cache_hits += 1
            times, inflation = cached
            obs = obs_runtime.active()
            if obs is not None:
                obs.metrics.counter(
                    "toss_contention_solve_cache_hits_total",
                    "Contention solves answered from the memo cache",
                ).inc()
                gauge = obs.metrics.gauge(
                    "toss_resource_inflation",
                    "Converged per-resource latency inflation factor",
                )
                for r in RESOURCES:
                    gauge.set(inflation[r], resource=r)
            return list(times), dict(inflation)
        shared = None
        if self._shared_key is not None:
            shared = self._SHARED_SOLVE_CACHE.get((self._shared_key, key))
        if shared is not None:
            self._SHARED_SOLVE_CACHE.move_to_end((self._shared_key, key))
            self.solve_cache_hits += 1
            times, inflation = list(shared[0]), dict(shared[1])
        else:
            with profile_mod.phase("contention/solve"):
                times, inflation = self._solve_uncached(demands)
            if self._shared_key is not None:
                self._SHARED_SOLVE_CACHE[(self._shared_key, key)] = (
                    list(times),
                    dict(inflation),
                )
                while (
                    len(self._SHARED_SOLVE_CACHE) > self._SHARED_SOLVE_CACHE_MAX
                ):
                    self._SHARED_SOLVE_CACHE.popitem(last=False)
        self._solve_cache[key] = (list(times), dict(inflation))
        while len(self._solve_cache) > self.solve_cache_max:
            self._solve_cache.popitem(last=False)
        return times, inflation

    def _solve_uncached(
        self, demands: list[TierDemand]
    ) -> tuple[list[float], dict[str, float]]:
        times = [max(d.nominal_time_s, 1e-12) for d in demands]
        inflation = {r: 1.0 for r in RESOURCES}
        works = [d._stalls_and_work() for d in demands]
        capacity = self._capacity
        inflate = self._inflation
        damping = DAMPING
        keep = 1.0 - damping
        # Flatten the per-demand work dicts into per-resource columns once:
        # the fixed-point loop then runs on plain lists via C-level
        # ``sum(map(truediv, ...))`` and a single zip comprehension — the
        # accumulation order (demands left-to-right per resource, resources
        # in declaration order per demand) matches the old nested dict
        # loops exactly, so every intermediate float is bit-identical.
        cpu_list = [d.cpu_time_s for d in demands]
        offered = [[w[r][1] for w in works] for r in RESOURCES]
        stalls = [[w[r][0] for w in works] for r in RESOURCES]
        caps = [capacity[r] for r in RESOURCES]
        infl = [1.0] * len(RESOURCES)
        for _ in range(MAX_ITERATIONS):
            # Geometrically damped update: the M/M/1 map is extremely steep
            # near saturation, and linear damping oscillates between the
            # clamped and unclamped regimes instead of settling on the
            # queueing-theoretic equilibrium.
            infl = [
                math.exp(
                    keep * math.log(f)
                    + damping
                    * math.log(inflate(sum(map(truediv, col, times)) / cap))
                )
                for f, col, cap in zip(infl, offered, caps)
            ]
            f0, f1, f2, f3, f4 = infl
            new_times = [
                max(c + s0 * f0 + s1 * f1 + s2 * f2 + s3 * f3 + s4 * f4, 1e-12)
                for c, s0, s1, s2, s3, s4 in zip(cpu_list, *stalls)
            ]
            delta = max(
                abs(a - b) / max(a, 1e-12) for a, b in zip(times, new_times)
            )
            times = new_times
            if delta <= TOLERANCE:
                break
        inflation = dict(zip(RESOURCES, infl))
        obs = obs_runtime.active()
        if obs is not None:
            gauge = obs.metrics.gauge(
                "toss_resource_inflation",
                "Converged per-resource latency inflation factor",
            )
            for r in RESOURCES:
                gauge.set(inflation[r], resource=r)
            obs.metrics.counter(
                "toss_contention_solves_total",
                "Contention fixed-point solves performed",
            ).inc()
        return times, inflation

    def contended_times(self, demands: list[TierDemand]) -> list[float]:
        """Each invocation's contended end-to-end time.

        With a single demand (or when no resource approaches saturation)
        the result is close to ``nominal_time_s``.
        """
        if not demands:
            return []
        times, _ = self._solve(demands)
        return times
