"""Benchmark output formatting.

Every ``benchmarks/bench_*.py`` prints the rows/series its table or
figure reports, through these helpers, so the harness output reads like
the paper's artifacts: an experiment header, labeled series, and
aligned tables with confidence intervals.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.bench.stats import TrialStats

Cell = Union[str, float, int, TrialStats, None]


def print_experiment_header(exp_id: str, caption: str) -> None:
    """Banner naming the paper table/figure being regenerated."""
    line = f"=== {exp_id}: {caption} ==="
    print()
    print(line)
    print("-" * len(line))


def print_counters(counters, label: str = "perf counters") -> None:
    """Render a :class:`~repro.bench.counters.PerfCounters` snapshot
    (or any flat name -> number dict) as an aligned block."""
    snap = counters.snapshot() if hasattr(counters, "snapshot") else dict(counters)
    print(f"[{label}]")
    if not snap:
        print("    (empty)")
        return
    width = max(len(name) for name in snap)
    for name in sorted(snap):
        print(f"    {name.ljust(width)}  {_format_cell(snap[name])}")


def _format_cell(cell: Cell, width: int = 0) -> str:
    if cell is None:
        text = "—"
    elif isinstance(cell, TrialStats):
        text = str(cell)
    elif isinstance(cell, float):
        text = f"{cell:.6g}"
    else:
        text = str(cell)
    return text.rjust(width) if width else text


class Table:
    """An aligned text table (one per paper table/figure panel)."""

    def __init__(self, columns: Sequence[str]):
        self.columns = list(columns)
        self.rows: List[List[Cell]] = []

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells for {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        formatted = [[_format_cell(c) for c in row] for row in self.rows]
        widths = [
            max([len(col)] + [len(row[i]) for row in formatted])
            for i, col in enumerate(self.columns)
        ]
        lines = [
            "  ".join(col.rjust(w) for col, w in zip(self.columns, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in formatted:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())


class Series:
    """A labeled x→y series (one line of a figure)."""

    def __init__(self, label: str, x_name: str = "x", y_name: str = "y"):
        self.label = label
        self.x_name = x_name
        self.y_name = y_name
        self.points: List[tuple] = []

    def add(self, x, y) -> None:
        self.points.append((x, y))

    def show(self) -> None:
        print(f"[series] {self.label} ({self.x_name} -> {self.y_name})")
        for x, y in self.points:
            print(f"    {_format_cell(x):>12}  {_format_cell(y)}")

    def ys(self) -> List[float]:
        return [
            p[1].mean if isinstance(p[1], TrialStats) else float(p[1])
            for p in self.points
        ]
