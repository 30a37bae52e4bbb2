"""Snapshot durability: content addressing, scrubbing, and repair.

Cold snapshots sit on slow media (PMEM, SSD) for long residencies —
exactly where silent bit-rot accumulates.  This package turns the
page-checksum arrays snapshots already carry into a *content-addressed
chunk index* (:mod:`.chunks`), so corruption is localised to chunks
instead of failing the whole snapshot; runs a background
:func:`~repro.durability.scrub.scrub_process` on the deterministic event
loop, rate-limited by an SSD token bucket its scans share; and drives a
repair ladder
(:class:`~repro.durability.manager.DurabilityManager`): fetch a clean
chunk from a live replica, else degrade the function to
re-profile/re-snapshot, else evict and re-replicate — marking true data
loss unrecoverable.  Every injected corruption ends with a typed
:class:`~repro.durability.events.CorruptionEvent` outcome
(``ledger.unaccounted() == 0``).

The chunk digests double as content addresses shared across snapshot
copies and cluster replicas — the groundwork for cross-host dedup and
delta snapshots (ROADMAP items 3 and 4).
"""

from .chunks import ChunkIndex, chunk_digests, content_key
from .events import CorruptionEvent, DurabilityLedger
from .manager import DurabilityManager
from .scrub import ScrubConfig, ScrubReport, run_scrub_pass, scrub_process

__all__ = [
    "ChunkIndex",
    "chunk_digests",
    "content_key",
    "CorruptionEvent",
    "DurabilityLedger",
    "DurabilityManager",
    "ScrubConfig",
    "ScrubReport",
    "run_scrub_pass",
    "scrub_process",
]
