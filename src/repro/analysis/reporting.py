"""Plain-text rendering of experiment results.

The benchmark harness prints every reproduced table and figure as a
fixed-width text table so the output can be diffed
against the paper's reported rows without any plotting dependencies.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

__all__ = ["format_table"]

Cell = Union[str, int, float, None]


def _render_cell(value: Cell, float_format: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    float_format: str = ".3f",
    title: str = "",
) -> str:
    """Render ``rows`` as a fixed-width text table.

    Args:
        headers: column names.
        rows: iterable of rows; each row must have ``len(headers)`` cells.
        float_format: format spec applied to float cells.
        title: optional title line printed above the table.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        cells = list(row)
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but there are {len(headers)} headers"
            )
        rendered_rows.append([_render_cell(c, float_format) for c in cells])

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)
