"""Table I as data.

Exposes the paper's workload catalogue (function, description, memory,
input type, inputs) in a machine-readable form for reports and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .suite import SUITE

__all__ = ["Table1Row", "table1"]


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I."""

    name: str
    description: str
    memory_mb: int
    input_type: str
    inputs: tuple[str, ...]


def table1() -> list[Table1Row]:
    """The paper's Table I, reconstructed from the suite models."""
    return [
        Table1Row(
            name=f.name,
            description=f.description,
            memory_mb=f.guest_mb,
            input_type=f.input_type,
            inputs=tuple(spec.label for spec in f.inputs),
        )
        for f in SUITE
    ]

