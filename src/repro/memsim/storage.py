"""Block-storage model for snapshot files.

Models the Optane SSD of the evaluation platform: sequential bandwidth for
bulk reads (REAP's working-set prefetch) and an IOPS budget for random 4 KiB
demand loads (lazy-restore page faults).  The device keeps running totals so
experiments can report how much I/O each restore strategy caused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import config, domains, faults
from ..errors import ConfigError

__all__ = ["StorageSpec", "StorageDevice", "DEFAULT_SSD"]


@dataclass(frozen=True)
class StorageSpec:
    """Device characteristics of the snapshot storage device."""

    name: str
    seq_read_bps: float = domains.real(gt=0.0)
    seq_write_bps: float = domains.real(gt=0.0)
    random_read_iops: float = domains.real(gt=0.0)
    random_write_iops: float = domains.real(gt=0.0)
    media_class: str = "ssd"
    """Durability media class (``"dram"``/``"pmem"``/``"ssd"``): selects
    the at-rest bit-rot rate of :class:`repro.faults.BitRotSpec`."""

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)

    @property
    def random_read_latency_s(self) -> float:
        """Average device-side latency of one 4 KiB random read."""
        return 1.0 / self.random_read_iops


OPTANE_SSD_SPEC = StorageSpec(
    name="Intel Optane DC SSD",
    seq_read_bps=config.SSD_SEQ_READ_BPS,
    seq_write_bps=config.SSD_SEQ_WRITE_BPS,
    random_read_iops=config.SSD_RANDOM_READ_IOPS,
    random_write_iops=config.SSD_RANDOM_WRITE_IOPS,
)


@dataclass
class StorageDevice:
    """A storage device instance with I/O accounting.

    All timing methods are pure functions of the spec; the mutable part is
    only the accounting (bytes/ops served), which experiments read out.
    """

    spec: StorageSpec = OPTANE_SSD_SPEC
    bytes_read: int = 0
    bytes_written: int = 0
    random_reads: int = 0
    random_writes: int = 0
    injector: object | None = None
    """Optional fault hook (a :class:`repro.faults.FaultInjector`); falls
    back to the process-wide default injector when unset.  Injected device
    stalls are billed into the returned read times and tracked in
    :attr:`injected_stall_s`."""
    injected_stall_s: float = 0.0

    def _fault_stall(self, n_ops: int) -> float:
        injector = faults.resolve(self.injector)
        if injector is None:
            return 0.0
        stall = injector.storage_spike_s(n_ops)
        self.injected_stall_s += stall
        return stall

    def sequential_read_time(self, nbytes: int) -> float:
        """Seconds to stream ``nbytes`` sequentially from the device.

        One sequential stream counts as a single operation for injected
        latency spikes."""
        if nbytes < 0:
            raise ConfigError("nbytes must be non-negative")
        self.bytes_read += nbytes
        return nbytes / self.spec.seq_read_bps + self._fault_stall(1)

    def sequential_write_time(self, nbytes: int) -> float:
        """Seconds to stream ``nbytes`` sequentially to the device."""
        if nbytes < 0:
            raise ConfigError("nbytes must be non-negative")
        self.bytes_written += nbytes
        return nbytes / self.spec.seq_write_bps

    def random_read_time(self, n_pages: int, *, concurrency: int = 1) -> float:
        """Seconds of device time to serve ``n_pages`` random 4 KiB reads.

        ``concurrency`` is the number of invocations simultaneously issuing
        faults; the IOPS budget is shared, so per-invocation service rate
        shrinks once the device saturates (Figure 9's REAP-Worst cliff).
        """
        if n_pages < 0:
            raise ConfigError("n_pages must be non-negative")
        if concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        self.random_reads += n_pages
        self.bytes_read += n_pages * config.PAGE_SIZE
        effective_iops = self.spec.random_read_iops / concurrency
        return n_pages / effective_iops + self._fault_stall(n_pages)

    def age_at_rest(self, snapshot, residency_s: float):
        """Age a snapshot file resting on this device by ``residency_s``.

        The bit-rot entry point of the durability plane: damage (if the
        active fault plan's :class:`~repro.faults.BitRotSpec` draws any
        for this device's ``media_class``) is flipped into the snapshot's
        page versions in place.  Returns the rotted page indices — an
        empty array without an injector, under a zero plan, or when the
        draw comes up clean, leaving fault-free runs bit-identical.
        """
        if residency_s < 0:
            raise ConfigError("residency_s must be non-negative")
        injector = faults.resolve(self.injector)
        if injector is None or injector.is_zero:
            return np.empty(0, dtype=np.int64)
        return injector.rot_snapshot(
            snapshot, residency_s, self.spec.media_class
        )

    def reset_counters(self) -> None:
        """Zero the I/O accounting (used between experiment repetitions)."""
        self.bytes_read = 0
        self.bytes_written = 0
        self.random_reads = 0
        self.random_writes = 0
        self.injected_stall_s = 0.0


DEFAULT_SSD = StorageDevice()
