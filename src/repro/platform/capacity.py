"""Host memory capacity packing: how many VMs fit.

The provider-side motivation of the paper (Section III: DRAM is 40-50 %
of server cost) cashes out as packing density — a host has a DRAM budget
and a (cheaper, larger) slow-tier budget, and every concurrently resident
VM pins memory in both.  With DRAM-only snapshots a VM pins its full
guest size in DRAM; with TOSS it pins only its fast fraction there and
the rest in the slow tier.

:class:`HostCapacity` answers admission questions for a set of resident
VMs; :func:`packing_density` measures the multiplier TOSS buys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchedulerError

__all__ = ["ResidentVM", "HostCapacity", "packing_density"]


@dataclass(frozen=True)
class ResidentVM:
    """Memory pinned by one resident (running or kept-warm) VM."""

    name: str
    fast_mb: float
    slow_mb: float

    def __post_init__(self) -> None:
        if self.fast_mb < 0 or self.slow_mb < 0:
            raise SchedulerError("pinned memory must be non-negative")
        if self.fast_mb + self.slow_mb <= 0:
            raise SchedulerError("a VM must pin some memory")


class HostCapacity:
    """A host's two-tier memory budget with admission control.

    Used-memory totals are kept as running left-fold sums so admission
    checks are O(1) rather than re-summing every resident VM.  The cache
    is bit-identical to a left fold ``total += vm.fast_mb`` over the
    resident list in admission order: extending the list by ``x`` adds
    ``x`` to the fold, which is the update :meth:`admit` applies;
    :meth:`release` re-folds the remaining list from scratch.  (Not
    ``sum()``: from Python 3.12 it compensates float rounding.)
    """

    def __init__(self, fast_mb: float, slow_mb: float) -> None:
        if fast_mb <= 0 or slow_mb < 0:
            raise SchedulerError("host needs a positive fast-tier budget")
        self.fast_mb = float(fast_mb)
        self.slow_mb = float(slow_mb)
        self._resident: list[ResidentVM] = []
        self._names: set[str] = set()
        self._used_fast = 0.0
        self._used_slow = 0.0

    @property
    def used_fast_mb(self) -> float:
        """DRAM pinned by resident VMs."""
        return self._used_fast

    @property
    def used_slow_mb(self) -> float:
        """Slow-tier memory pinned by resident VMs."""
        return self._used_slow

    @property
    def fast_pressure(self) -> float:
        """Fast-tier utilisation in [0, 1] — the ladder's capacity signal."""
        return self.used_fast_mb / self.fast_mb

    def fits(self, vm: ResidentVM) -> bool:
        """Whether the VM fits in the remaining budget."""
        return (
            self.used_fast_mb + vm.fast_mb <= self.fast_mb + 1e-9
            and self.used_slow_mb + vm.slow_mb <= self.slow_mb + 1e-9
        )

    def admit(self, vm: ResidentVM) -> bool:
        """Admit the VM if it fits; returns success.

        Resident names are the release handles, so admitting a second VM
        under a name already resident is a bookkeeping bug — a lease that
        could be released twice or leak — and raises a typed
        :class:`~repro.errors.SchedulerError` instead of silently
        shadowing the first.
        """
        if vm.name in self._names:
            raise SchedulerError(
                f"VM {vm.name!r} is already resident; admit() names must be "
                "unique until released"
            )
        if not self.fits(vm):
            return False
        self._resident.append(vm)
        self._names.add(vm.name)
        self._used_fast = self._used_fast + vm.fast_mb
        self._used_slow = self._used_slow + vm.slow_mb
        return True

    def release(self, name: str) -> None:
        """Release the resident VM with the given name.

        Releasing a name that is not resident means a lease was dropped
        twice or never admitted — both accounting bugs — so it raises a
        typed :class:`~repro.errors.SchedulerError` instead of silently
        returning.
        """
        if name not in self._names:
            raise SchedulerError(
                f"no resident VM named {name!r} to release "
                "(double release or never admitted?)"
            )
        for i, vm in enumerate(self._resident):
            if vm.name == name:
                del self._resident[i]
                break
        self._names.discard(name)
        # Re-fold from scratch: removal breaks the incremental left-fold
        # identity, re-folding the remaining residents restores it.
        self._used_fast = self._used_slow = 0.0
        for vm in self._resident:
            self._used_fast += vm.fast_mb
            self._used_slow += vm.slow_mb

    def fill_count(self, vm: ResidentVM, limit: int = 100_000) -> int:
        """How many copies of ``vm`` (at most ``limit``) :meth:`admit`
        would take, one after another, before the first one that does not
        fit.

        Pure counting — no resident VMs are materialised and the host is
        left untouched.  Bit-identical to the admit loop: the loop's
        running totals are left-fold sums of repeated additions, which is
        exactly what ``np.cumsum`` (sequential accumulation) computes, so
        the per-step ``fits`` comparisons see identical float64 values.
        """
        if limit <= 0:
            return 0
        fast_step = np.full(limit, vm.fast_mb)
        slow_step = np.full(limit, vm.slow_mb)
        fast_step[0] = self._used_fast + vm.fast_mb
        slow_step[0] = self._used_slow + vm.slow_mb
        cum_fast = np.cumsum(fast_step)
        cum_slow = np.cumsum(slow_step)
        ok = (cum_fast <= self.fast_mb + 1e-9) & (
            cum_slow <= self.slow_mb + 1e-9
        )
        # fits() is prefix-monotone for identical VMs: count the prefix.
        bad = np.flatnonzero(~ok)
        return int(bad[0]) if bad.size else limit


def packing_density(
    guest_mb: float,
    slow_fraction: float,
    *,
    host_fast_mb: float,
    host_slow_mb: float,
) -> tuple[int, int]:
    """(DRAM-only count, tiered count) of identical VMs a host holds.

    DRAM-only pins the full guest in the fast tier; the tiered VM pins
    ``(1 - slow_fraction) * guest`` there and the rest in the slow tier.
    """
    if not 0.0 <= slow_fraction <= 1.0:
        raise SchedulerError("slow_fraction must lie in [0, 1]")
    dram_only = HostCapacity(host_fast_mb, host_slow_mb).fill_count(
        ResidentVM("dram", guest_mb, 0.0)
    )
    fast = max(guest_mb * (1.0 - slow_fraction), 1e-6)
    tiered = HostCapacity(host_fast_mb, host_slow_mb).fill_count(
        ResidentVM("tiered", fast, guest_mb * slow_fraction)
    )
    return dram_only, tiered
