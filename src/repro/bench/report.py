"""Plain-text rendering of benchmark results in the paper's shapes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = ["TableResult", "format_table", "format_grid", "geometric_mean"]


@dataclass(frozen=True)
class TableResult:
    """One titled text table and the data behind its rows (the
    ablations, software studies and sensitivity sweeps)."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    data: dict

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's "on average" for speedups)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Fixed-width text table."""
    cols = len(headers)
    widths = [len(str(h)) for h in headers]
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != cols:
            raise ValueError("row width mismatch")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_grid(
    grid: Mapping[tuple[str, str], float],
    *,
    row_keys: Sequence[str],
    col_keys: Sequence[str],
    title: str | None = None,
    fmt: str = "{:.2f}",
) -> str:
    """Render a {(row, col): value} mapping as the paper's bar-chart data:
    one row per pattern, one column per graph, plus a geo-mean column."""
    headers = ["pattern"] + list(col_keys) + ["geomean"]
    rows = []
    for rk in row_keys:
        vals = [grid.get((rk, ck), float("nan")) for ck in col_keys]
        cells = [rk] + [fmt.format(v) for v in vals]
        cells.append(fmt.format(geometric_mean([v for v in vals if v == v])))
        rows.append(cells)
    all_vals = [v for v in grid.values() if v == v]
    table = format_table(headers, rows, title=title)
    if all_vals:
        table += (
            f"\noverall geomean = {geometric_mean(all_vals):.2f}"
            f", max = {max(all_vals):.2f}"
        )
    return table


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
