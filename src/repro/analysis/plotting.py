"""Dependency-free ASCII plotting for experiment series.

The benchmark harness reports tables, but the paper's figures are line plots
(energy vs V, accuracy vs time, FPS traces).  This module renders small ASCII
line charts so examples and benchmark artefacts can show the *shape* of a
series — trends, crossovers, plateaus — without requiring matplotlib in the
offline environment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ascii_multi_plot"]


def _scale(value: float, low: float, high: float, size: int) -> int:
    if high == low:
        return 0
    position = (value - low) / (high - low)
    return min(size - 1, max(0, int(round(position * (size - 1)))))


def ascii_multi_plot(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    width: int = 60,
    height: int = 15,
    title: str = "",
    x_label: str = "x",
    markers: Optional[Sequence[str]] = None,
) -> str:
    """Render several named series on a shared ASCII canvas.

    Args:
        series: mapping of series name to ``(xs, ys)``.
        width: canvas width in characters.
        height: canvas height in rows.
        title: optional title line.
        x_label: label printed under the x axis.
        markers: one marker character per series (defaults to ``* + o x # @``).
    """
    if not series:
        raise ValueError("series must not be empty")
    if width < 10 or height < 4:
        raise ValueError("canvas too small")
    markers = list(markers) if markers else ["*", "+", "o", "x", "#", "@"]

    all_x: List[float] = []
    all_y: List[float] = []
    for xs, ys in series.values():
        if len(xs) != len(ys):
            raise ValueError("each series needs xs and ys of equal length")
        if not xs:
            raise ValueError("series must not be empty")
        all_x.extend(xs)
        all_y.extend(ys)
    x_low, x_high = min(all_x), max(all_x)
    y_low, y_high = min(all_y), max(all_y)

    canvas = [[" "] * width for _ in range(height)]
    for index, (name, (xs, ys)) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            column = _scale(x, x_low, x_high, width)
            row = height - 1 - _scale(y, y_low, y_high, height)
            canvas[row][column] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    y_labels = [f"{y_high:.3g}", f"{(y_low + y_high) / 2:.3g}", f"{y_low:.3g}"]
    label_width = max(len(label) for label in y_labels)
    for row_index, row in enumerate(canvas):
        if row_index == 0:
            prefix = y_labels[0].rjust(label_width)
        elif row_index == height // 2:
            prefix = y_labels[1].rjust(label_width)
        elif row_index == height - 1:
            prefix = y_labels[2].rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    lines.append(
        " " * label_width
        + f"  {x_low:.3g}".ljust(width // 2)
        + f"{x_label}".center(10)
        + f"{x_high:.3g}".rjust(width // 2 - 10)
    )
    legend = "  ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * label_width + "  " + legend)
    return "\n".join(lines)
