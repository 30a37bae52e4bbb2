"""Block-storage model for snapshot files.

Models the Optane SSD of the evaluation platform by two numbers:
sequential bandwidth for bulk reads (REAP's working-set stream, billed by
:func:`repro.vm.restore.reap_restore`) and an IOPS budget for random
4 KiB demand loads (lazy-restore page faults, shared between concurrent
invocations as :class:`repro.memsim.bandwidth.ContentionModel`'s ``ssd``
resource).  The spec is stateless: injected latency spikes and at-rest
bit-rot come from the fault plane (:mod:`repro.faults`), not from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import config, domains
from ..errors import ConfigError

__all__ = ["StorageSpec", "OPTANE_SSD_SPEC"]


@dataclass(frozen=True)
class StorageSpec:
    """Device characteristics of the snapshot storage device."""

    name: str
    seq_read_bps: float = domains.real(gt=0.0)
    random_read_iops: float = domains.real(gt=0.0)
    media_class: str = "ssd"
    """Durability media class (``"dram"``/``"pmem"``/``"ssd"``): selects
    the at-rest bit-rot rate of :class:`repro.faults.BitRotSpec`."""

    def __post_init__(self) -> None:
        domains.check_fields(self, ConfigError)


OPTANE_SSD_SPEC = StorageSpec(
    name="Intel Optane DC SSD",
    seq_read_bps=config.SSD_SEQ_READ_BPS,
    random_read_iops=config.SSD_RANDOM_READ_IOPS,
)
