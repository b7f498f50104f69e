"""Plain-text reporting: aligned tables and percentages.

Benchmarks print the same rows/series the paper's figures show; these
helpers keep that output consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["table", "pct"]


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
