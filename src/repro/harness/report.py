"""Plain-text reporting: aligned tables and throughput series.

Benchmarks print the same rows/series the paper's figures show; these
helpers keep that output consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["table", "sparkline", "pct", "ratio"]

_SPARK_CHARS = " ▁▂▃▄▅▆▇█"


def table(headers: Sequence[str], rows: Iterable[Sequence[object]],
          title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append([_cell(v) for v in row])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(rendered[0], widths)))
    lines.append(sep)
    for row in rendered[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def pct(fraction: float, signed: bool = True) -> str:
    """Format a fraction as a percentage string (0.135 -> '+13.5%')."""
    sign = "+" if signed and fraction >= 0 else ""
    return f"{sign}{fraction * 100:.1f}%"


def ratio(value: float) -> str:
    """Format a multiplier ("3.96x")."""
    return f"{value:.2f}x"


def sparkline(values: Sequence[float], width: int = 60,
              ceiling: Optional[float] = None) -> str:
    """A unicode sparkline of *values*, resampled to *width* columns.

    Mirrors the paper's throughput-over-time plots in a terminal:
    ``sparkline(rates)`` next to a label gives the Fig. 8 shape at a
    glance. *ceiling* pins the top of the scale (e.g. the device limit)
    so multiple series are comparable.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return ""
    if arr.size > width:
        # Average into width buckets.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() if b > a else 0.0
                        for a, b in zip(edges[:-1], edges[1:])])
    top = ceiling if ceiling is not None else (arr.max() or 1.0)
    top = max(top, 1e-12)
    levels = np.clip(arr / top, 0.0, 1.0) * (len(_SPARK_CHARS) - 1)
    return "".join(_SPARK_CHARS[int(round(v))] for v in levels)
