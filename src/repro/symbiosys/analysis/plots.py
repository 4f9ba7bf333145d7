"""Terminal-rendered plots for the analysis scripts.

The paper's summary scripts "generate visual plots"; :func:`scatter`
renders the Figure 10 blocked-ULT scatter as text so it works anywhere
the library runs.  Figure 5's request timeline comes from the Zipkin
export and Figure 12's PVAR series from
:func:`repro.experiments.reporting.series_histogram`.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["scatter"]


def _scale(value: float, lo: float, hi: float, width: int) -> int:
    if hi <= lo:
        return 0
    pos = int((value - lo) / (hi - lo) * (width - 1))
    return min(width - 1, max(0, pos))


def scatter(
    points: Sequence[tuple[float, float]],
    *,
    width: int = 72,
    height: int = 16,
    x_label: str = "time",
    y_label: str = "value",
) -> str:
    """Dot plot of (x, y) samples -- the Figure 10 rendering."""
    if not points:
        return "(no samples)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = _scale(x, x_lo, x_hi, width)
        row = height - 1 - _scale(y, y_lo, y_hi, height)
        grid[row][col] = "*"
    lines = [f"{y_label} (max {y_hi:g})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {x_lo:g} .. {x_hi:g}")
    return "\n".join(lines)
