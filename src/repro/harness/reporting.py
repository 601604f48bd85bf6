"""Fixed-width text rendering for experiment output.

The CLI prints the same rows/series the paper's figures plot; these
helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table", "format_matrix"]


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned text table with a header rule."""
    cells = [[_render(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_matrix(
    row_labels: Sequence[Any],
    col_labels: Sequence[Any],
    values: Mapping[Any, Mapping[Any, Any]],
    corner: str = "",
    title: str | None = None,
) -> str:
    """Render ``values[row][col]`` as an aligned grid."""
    headers = [corner] + [_render(c) for c in col_labels]
    rows = []
    for r in row_labels:
        rows.append([r] + [values.get(r, {}).get(c, "-") for c in col_labels])
    return format_table(headers, rows, title=title)
