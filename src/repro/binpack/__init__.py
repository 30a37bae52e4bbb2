"""Bin-packing heuristics (Section V-C).

TOSS splits the observed memory regions into N mostly-equally-accessed bins
using the open-source ``binpacking`` package's constant-bin-number
heuristic; this subpackage reimplements that algorithm from scratch.
"""

from .heuristics import to_constant_bin_number

__all__ = ["to_constant_bin_number"]
