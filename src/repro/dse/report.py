"""Result tables.

Plain-text tables and CSV emission for the experiment harness: every bench
regenerates its figure/table by printing one of these.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from .explorer import DsePoint


def _union_columns(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Ordered union of keys across *all* rows (first-seen order).

    Heterogeneous rows are the norm, not the exception — error rows grow
    an ``error`` key, ASIC points lack reconfiguration metrics — so
    deriving columns from ``rows[0]`` alone silently drops data.
    """
    columns: Dict[str, None] = {}
    for row in rows:
        for key in row:
            columns.setdefault(key)
    return list(columns)


def _fmt(value: object, precision: int = 3) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render dictionaries as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = _union_columns(rows)
    cells = [[_fmt(row.get(col, ""), precision) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(cell[i]) for cell in cells))
        for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for cell in cells:
        lines.append(" | ".join(value.ljust(w) for value, w in zip(cell, widths)))
    return "\n".join(lines)


def points_to_rows(
    points: Sequence[DsePoint],
    param_keys: Sequence[str],
    metric_keys: Sequence[str],
) -> List[Dict[str, object]]:
    """Flatten DSE points into table rows (failed points show the error)."""
    rows: List[Dict[str, object]] = []
    for point in points:
        row: Dict[str, object] = {key: point.params.get(key, "") for key in param_keys}
        if point.ok:
            for key in metric_keys:
                row[key] = point.metrics.get(key, "")
        else:
            row["error"] = point.error
        rows.append(row)
    return rows


def format_points(
    points: Sequence[DsePoint],
    param_keys: Sequence[str],
    metric_keys: Sequence[str],
    *,
    title: Optional[str] = None,
) -> str:
    """Table rendering of DSE points."""
    rows = points_to_rows(points, param_keys, metric_keys)
    columns = list(param_keys) + list(metric_keys)
    if any("error" in row for row in rows):
        columns.append("error")
    return format_table(rows, columns, title=title)


def to_csv(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Serialize rows as CSV text."""
    if not rows:
        return ""
    if columns is None:
        columns = _union_columns(rows)
    out = io.StringIO()
    writer = csv.DictWriter(
        out, fieldnames=list(columns), extrasaction="ignore", restval=""
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def write_csv(
    path: str, rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None
) -> None:
    """Write rows to a CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv(rows, columns))
