"""Serverless workload models (Table I).

Each of the paper's ten FunctionBench/SeBS functions is modelled as a
:class:`FunctionModel`: a declarative description of its guest memory size,
its four inputs, and its access-histogram shape, from which
:meth:`FunctionModel.trace` synthesises a concrete
:class:`~repro.trace.events.InvocationTrace` per invocation.

The numeric parameters are calibrated against the paper's measurements —
full-slow-tier slowdowns (Figure 2), minimum-cost placements (Figure 5) and
slow-tier offload percentages (Table II); see DESIGN.md section 4.
"""

from .base import FunctionModel, InputSpec, INPUT_LABELS
from .suite import SUITE, get_function, function_names
from .workloads import Table1Row, table1
from .extended import EXTENDED_SUITE

__all__ = [
    "FunctionModel",
    "InputSpec",
    "INPUT_LABELS",
    "SUITE",
    "get_function",
    "function_names",
    "EXTENDED_SUITE",
    "Table1Row",
    "table1",
]
