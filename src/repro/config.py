"""Global constants and paper-fixed parameters.

Every number the paper pins down (Section V/VI) lives here so that the rest
of the code never hard-codes a magic value.  All sizes are in bytes unless a
suffix says otherwise; all times are in seconds.
"""

from __future__ import annotations

# --- Address space -------------------------------------------------------

PAGE_SIZE = 4096
"""Guest page size in bytes (x86-64 base pages, as Firecracker uses)."""

MB = 1024 * 1024
GB = 1024 * MB

PAGES_PER_MB = MB // PAGE_SIZE

# Vendor memory bundles come in multiples of 128 MB (Section II-D).
MEMORY_BUNDLE_MB = 128

# --- TOSS paper parameters (Section V) ------------------------------------

NUM_BINS = 10
"""Number of (mostly) equally-accessed bins used by profiling analysis."""

CONVERGENCE_WINDOW = 100
"""Profiling terminates after this many invocations without a change to the
unified access-pattern file (``N`` in Section V-B)."""

DAMON_SAMPLING_INTERVAL_S = 10e-6
"""DAMON sampling interval; 10 microseconds in the prototype."""

DAMON_MIN_REGION_BYTES = 16 * 1024
"""Minimum DAMON region size; 16 kB in the evaluation (Section VI-A)."""

DAMON_ACCESS_BIT_SCALE = 200.0
"""CPU touches per LLC-miss-weighted trace count.  Traces carry LLC-miss
counts (they drive stall time), but DAMON checks page-table accessed bits,
which any touch sets — cache hits included.  This factor converts a trace
count rate into an accessed-bit set rate for the sampling model."""

DAMON_FILES_PER_INPUT = 100
"""Number of DAMON output files folded into each snapshot (Section VI-A)."""

ACCESS_MERGE_THRESHOLD = 100
"""Adjacent regions whose access counts differ by less than this many
accesses are merged (Section V-F, 'Access count Merging')."""

COST_RATIO_FAST_OVER_SLOW = 2.5
"""Price ratio between the fast and slow tiers (Section VI-B)."""

OPTIMAL_NORMALIZED_COST = 1.0 / COST_RATIO_FAST_OVER_SLOW
"""All memory in the slow tier at zero slowdown: 1/2.5 = 0.4."""

REPROFILE_OVERHEAD_BOUND = 0.0001
"""Default bound on profiling overhead as a fraction of total invocations
(Section V-E: 0.01% of invocations -> 0.0001)."""

# --- Default simulated device characteristics (Section VI-B platform) ------
# These mirror the evaluation platform: DDR4 DRAM fast tier, Intel Optane
# PMEM slow tier, Optane SSD storage.  Only the *ratios* matter for the
# paper's shapes; see DESIGN.md section 4.

DRAM_LOAD_LATENCY_S = 80e-9
DRAM_STORE_LATENCY_S = 80e-9
PMEM_LOAD_LATENCY_S = 300e-9
PMEM_STORE_LATENCY_S = 700e-9
PMEM_RANDOM_PENALTY = 1.15
"""Extra multiplier on slow-tier load latency for random (non-serial) access
patterns; Section V-C notes serial regions perform better than random."""

DRAM_BANDWIDTH_BPS = 100 * GB
PMEM_BANDWIDTH_BPS = 30 * GB

CACHELINE_BYTES = 64
"""Bytes moved per LLC-miss access on DRAM."""

PMEM_ACCESS_BYTES = 256
"""Optane's internal access granularity: every load/store moves 256 B."""

PMEM_READ_OPS_CAP = 15e6
"""Sustainable random-read operations/s of the whole slow tier.  Shared by
all concurrent invocations; queueing past this drives Figure 9's TOSS
slowdowns (Optane loaded latency rises steeply near saturation)."""

PMEM_WRITE_OPS_CAP = 1.2e6
"""Sustainable store operations/s of the slow tier (Optane write throughput
is far below its read throughput)."""

UFFD_FAULT_LATENCY_S = 25e-6
"""Base cost of one userfaultfd-served page fault: VMM handler round trip
plus a random 4 KiB storage read.  REAP serves all non-prefetched pages
this way, which bypasses kernel readahead."""

UFFD_HANDLER_OPS_CAP = 200e3
"""Aggregate fault-service capacity of the VMM userfaultfd handlers
(ops/s).  Under 20-way concurrency the handlers compete with the guest
vCPUs for cores, which is what makes REAP-Worst collapse in Figure 9."""

REAP_POPULATE_PER_PAGE_S = 0.2e-6
"""Per-page cost of populating page-table entries for REAP's eagerly
loaded working set during setup."""

MAX_QUEUE_INFLATION = 100.0
"""Cap on the M/M/1-style queueing inflation factor (rho clamped at 0.99)."""

SSD_SEQ_READ_BPS = 2500 * MB
SSD_RANDOM_READ_IOPS = 550_000

MINOR_FAULT_LATENCY_S = 1.5e-6
"""Software cost of a minor page fault (map an already-resident page)."""

MAJOR_FAULT_LATENCY_S = 15e-6
"""A 4 KiB demand load from the SSD including software fault handling."""

READAHEAD_PAGES = 8
"""Kernel readahead window (pages prefetched past each faulting page) for
file-backed mappings.  userfaultfd-served faults bypass readahead."""

PMEM_COPY_FAULT_LATENCY_S = 1.7e-6
"""First-touch cost of a fast-tier page in a TOSS restore: a minor fault
plus copying one 4 KiB page out of the persistent fast-tier snapshot file."""

VM_STATE_LOAD_S = 5e-3
"""Fixed cost of loading the VMM/device state portion of a snapshot."""

MMAP_REGION_SETUP_S = 4e-6
"""Per-region cost of establishing one memory mapping during restore."""

TIERED_RESTORE_BASE_S = 2e-3
"""Fixed extra cost of a TOSS restore beyond the VM state load: opening
the two per-tier snapshot files and fetching the layout file from
storage.  Constant per function — the price of TOSS's O(1) setup."""

LAYOUT_PARSE_PER_REGION_S = 1.0e-6
"""Per-region cost of parsing the tiered memory layout file."""

DAMON_OVERHEAD = 0.03
"""Relative execution-time overhead of profiling with DAMON enabled
(Section VI-A measures ~3 % on average)."""

DEFAULT_SEED = 0x705_5EED
"""Default RNG seed; every stochastic component accepts an explicit seed."""
