"""TOSS — the paper's primary contribution.

* :mod:`~repro.core.cost` — the memory cost model (Equation 1).
* :mod:`~repro.core.analysis` — profiling analysis (Section V-C): zero-page
  offload, equal-access binning, bin profiling, and cost-driven placement.
* :mod:`~repro.core.tiering` — snapshot tiering and region merging
  (Sections V-D, V-F).
* :mod:`~repro.core.reprofile` — the re-profiling trigger (Section V-E,
  Equations 2–4).
* :mod:`~repro.core.toss` — the four-step controller gluing it together
  (Figure 4).
"""

from .cost import normalized_cost, CostPoint
from .analysis import BinProfile, AnalysisResult, ProfilingAnalyzer
from .tiering import build_tiered_snapshot
from .reprofile import ReprofilePolicy
from .toss import TossConfig, TossController, InvocationOutcome, Phase

__all__ = [
    "normalized_cost",
    "CostPoint",
    "BinProfile",
    "AnalysisResult",
    "ProfilingAnalyzer",
    "build_tiered_snapshot",
    "ReprofilePolicy",
    "TossConfig",
    "TossController",
    "InvocationOutcome",
    "Phase",
]
