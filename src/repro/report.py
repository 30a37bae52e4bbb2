"""Plain-text tables and series for experiment output.

Every experiment returns structured data plus a :class:`Table` (rows like
the paper's tables) or :class:`SeriesSet` (the lines of a figure).  The
benchmark harness prints these, so ``pytest benchmarks/ --benchmark-only``
regenerates the paper's numbers as readable text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Table", "Series", "SeriesSet", "fmt"]


def fmt(value: object, precision: int = 3) -> str:
    """Format one cell: floats get fixed precision, the rest ``str()``."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


@dataclass
class Table:
    """A simple aligned text table."""

    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    precision: int = 3

    def add_row(self, *cells: object) -> None:
        """Append a row; must match the header width."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        """Render the table as aligned text."""
        cells = [[fmt(c, self.precision) for c in row] for row in self.rows]
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in cells)) if cells
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [self.title, ""]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def column(self, name: str) -> list[object]:
        """Extract a column by header name."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass(frozen=True)
class Series:
    """One line of a figure: label plus (x, y) points."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")


@dataclass
class SeriesSet:
    """A figure: a titled collection of series."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)

    def add(self, label: str, x: Sequence[float], y: Sequence[float]) -> None:
        """Append one series."""
        self.series.append(Series(label, tuple(x), tuple(y)))

    def render(self, precision: int = 3) -> str:
        """Render as labelled point lists."""
        lines = [self.title, f"  x: {self.x_label}   y: {self.y_label}"]
        for s in self.series:
            pts = "  ".join(
                f"({fmt(a, precision)}, {fmt(b, precision)})"
                for a, b in zip(s.x, s.y)
            )
            lines.append(f"  {s.label}: {pts}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
