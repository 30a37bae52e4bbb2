"""One host of the cluster fleet.

A :class:`Host` wraps a single-host
:class:`~repro.platform.server.ServerlessPlatform` (its own core pool,
keep-alive cache, pre-warm predictor, overload policy and fault
injector) with the host-level fault domain: crash and partition windows
from its :class:`~repro.faults.plan.HostFaultSpec`, crash-time eviction
of in-memory state, and adoption of replicated snapshot state from a
peer (the mechanics behind replication and re-placement).
"""

from __future__ import annotations

from ..core.toss import Phase, TossController
from ..errors import ClusterError
from ..functions.base import FunctionModel
from ..faults.plan import HostFaultSpec
from ..platform.server import ServerlessPlatform
from ..vm.snapshot import TieredSnapshot

__all__ = ["Host"]


class Host:
    """One fleet host: a platform plus its fault-domain bookkeeping."""

    def __init__(
        self,
        hid: int,
        platform: ServerlessPlatform,
        spec: HostFaultSpec | None = None,
    ) -> None:
        self.hid = hid
        self.platform = platform
        self.spec = spec
        self.kills = 0
        """Requests killed in flight by this host's crashes."""
        self.adoptions = 0
        """Functions whose prepared state this host adopted from a peer."""

    # -- fault-domain queries -------------------------------------------------

    def routable_at(self, t_s: float) -> bool:
        """Whether a request can be dispatched to the host at ``t_s``."""
        return self.spec is None or self.spec.routable_at(t_s)

    def reachable_at(self, t_s: float) -> bool:
        """Whether the host's at-rest snapshots can be copied at ``t_s``
        (a crashed *or* partitioned host's local storage is unreachable
        until it returns)."""
        return self.spec is None or self.spec.routable_at(t_s)

    def crash_overlapping(
        self, start_s: float, end_s: float
    ) -> tuple[float, float] | None:
        """The crash window overlapping the service interval, if any."""
        if self.spec is None:
            return None
        return self.spec.crash_overlapping(start_s, end_s)

    # -- crash semantics ------------------------------------------------------

    def crash(self) -> None:
        """Lose the host's in-memory state at a crash.

        Keep-alive residents, pre-warm predictor state and the serve
        state (busy cores, queue and in-flight counts, capacity leases)
        live in host memory, so a crash loses them; at-rest snapshot
        files survive.
        """
        platform = self.platform
        if platform.keepalive is not None:
            platform.keepalive.shrink_to(0.0)
        if platform.prewarm is not None:
            platform.prewarm.predictors.clear()
        platform.reset_serve_state()

    # -- replication ----------------------------------------------------------

    def adopt_single_file(
        self, function: FunctionModel, source: TossController
    ) -> bool:
        """Adopt a peer's single-tier snapshot *file* only.

        The durability plane's eager replication: the single-tier memory
        file is copied to replica holders as soon as it exists, closing
        the early-life window in which a function's only copy could rot
        before profiling converges.  The copy is at-rest state for scrub
        repair — a controller in INITIAL never restores from it (its
        first invocation still boots and captures its own snapshot), so
        serving behavior is unchanged.
        """
        if source.single_snapshot is None:
            return False
        dep = self.platform.deploy(function)
        ctl = dep.controller
        if (
            dep.invocations > 0
            or ctl.phase is not Phase.INITIAL
            or ctl.single_snapshot is not None
        ):
            return False
        ctl.single_snapshot = source.single_snapshot.copy()
        return True

    def adopt_prepared(
        self,
        function: FunctionModel,
        source: TossController,
        *,
        force: bool = False,
    ) -> bool:
        """Adopt a peer's prepared (converged) snapshot state.

        Models the replication copy: the tiered and single-tier snapshot
        *files* land on this host, so its controller can serve tiered
        restores immediately without re-running the profiling pipeline.
        Only a controller that has never served (no local state to
        clobber) adopts; each snapshot is a copy that shares the source's
        captured image and carries its own write ledger, so a later
        at-rest corruption on one host never leaks to its replicas.

        ``force`` re-admits a controller whose local files were *evicted*
        (unrecoverable corruption sent it back to INITIAL with no
        snapshots) — it has served before, but there is no local state
        left to clobber.  Even forced, a controller holding any snapshot
        never adopts.
        """
        if source.tiered_snapshot is None or source.single_snapshot is None:
            raise ClusterError(
                f"{function.name!r}: adoption source has no prepared snapshots"
            )
        dep = self.platform.deploy(function)
        ctl = dep.controller
        if dep.invocations > 0 or ctl.phase is not Phase.INITIAL:
            evicted = (
                ctl.phase is Phase.INITIAL
                and ctl.single_snapshot is None
                and ctl.tiered_snapshot is None
            )
            if not (force and evicted):
                return False
        src_tiered = source.tiered_snapshot
        ctl.single_snapshot = source.single_snapshot.copy()
        ctl.tiered_snapshot = TieredSnapshot(
            base=src_tiered.base.copy(),
            layout=src_tiered.layout,
            expected_slowdown=src_tiered.expected_slowdown,
            source_inputs=src_tiered.source_inputs,
        )
        ctl.analysis = source.analysis
        # Arm the re-profiling policy with the source's calibration (a
        # fresh iteration count: this host's traffic starts from zero).
        ctl.reprofile.profiling_overhead = source.reprofile.profiling_overhead
        ctl.reprofile.latency_lri = source.reprofile.latency_lri
        ctl.reprofile.slowdown_slow = source.reprofile.slowdown_slow
        ctl.reprofile.accelerating_factor = 0.0
        ctl.reprofile.iterations = 0
        ctl.phase = Phase.TIERED
        self.adoptions += 1
        return True
