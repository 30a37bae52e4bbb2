"""``userfaultfd``-based working-set capture (REAP's profiler).

REAP registers the guest memory with ``userfaultfd`` during the recording
invocation: every first touch traps to the VMM, which logs the page.  The
result is the *dual-accessed* view the paper criticises in Section III-C —
a page touched once and a page touched a million times look identical.

The trap cost is why REAP only profiles the first invocation: every
working-set page costs a handler round trip.
"""

from __future__ import annotations

import numpy as np

from ..trace.events import InvocationTrace

__all__ = ["uffd_working_set"]


def uffd_working_set(trace: InvocationTrace) -> np.ndarray:
    """Boolean mask of pages touched at least once during the invocation.

    Exact first-touch capture: ``userfaultfd`` misses nothing (unlike
    sampling), but also counts nothing beyond the first touch.
    """
    mask = np.zeros(trace.n_pages, dtype=bool)
    mask[trace.working_set] = True
    return mask
