"""Dependency-free ASCII line/scatter plots for EXPERIMENTS.md figures.

The environment has no plotting backend, so "figures" are rendered as
monospace charts: one character cell per plot position, one glyph per
series, log-scale support on both axes, and a legend.  Good enough to
show scaling shapes (straight lines on the appropriate axes) inline in
markdown code fences.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_SERIES_GLYPHS = "ox+*#@%&"


def ascii_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    *,
    width: int = 64,
    height: int = 18,
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named ``(xs, ys)`` series as an ASCII chart.

    Parameters
    ----------
    series:
        Mapping from series name to ``(xs, ys)``; all points with
        non-finite coordinates (or non-positive ones under log scaling)
        are dropped.
    width, height:
        Plot-area size in character cells.
    log_x, log_y:
        Use logarithmic axes.
    title, x_label, y_label:
        Annotations; the y label is printed above the axis.
    """
    if width < 8 or height < 4:
        raise ValueError(f"plot area too small: {width}x{height}")
    if not series:
        raise ValueError("need at least one series to plot")

    transformed: dict[str, list[tuple[float, float]]] = {}
    for name, (xs, ys) in series.items():
        points = []
        for x, y in zip(xs, ys):
            x = float(x)
            y = float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if log_x:
                if x <= 0:
                    continue
                x = math.log10(x)
            if log_y:
                if y <= 0:
                    continue
                y = math.log10(y)
            points.append((x, y))
        transformed[name] = points

    all_points = [p for points in transformed.values() for p in points]
    if not all_points:
        raise ValueError("no plottable points (check log-scale positivity)")
    x_min = min(p[0] for p in all_points)
    x_max = max(p[0] for p in all_points)
    y_min = min(p[1] for p in all_points)
    y_max = max(p[1] for p in all_points)
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for series_index, (name, points) in enumerate(transformed.items()):
        glyph = _SERIES_GLYPHS[series_index % len(_SERIES_GLYPHS)]
        for x, y in points:
            column = int(round((x - x_min) / x_span * (width - 1)))
            row = int(round((y - y_min) / y_span * (height - 1)))
            canvas[height - 1 - row][column] = glyph

    def _axis_value(value: float, is_log: bool) -> str:
        return f"{10 ** value:.3g}" if is_log else f"{value:.3g}"

    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_label}{' (log)' if log_y else ''}")
    top_label = _axis_value(y_max, log_y)
    bottom_label = _axis_value(y_min, log_y)
    label_width = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(canvas):
        if row_index == 0:
            prefix = top_label.rjust(label_width)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    left = _axis_value(x_min, log_x)
    right = _axis_value(x_max, log_x)
    axis_caption = f"{left}{' ' * max(1, width - len(left) - len(right))}{right}"
    lines.append(" " * (label_width + 2) + axis_caption)
    lines.append(" " * (label_width + 2) + f"{x_label}{' (log)' if log_x else ''}")
    legend = "  ".join(
        f"{_SERIES_GLYPHS[i % len(_SERIES_GLYPHS)]} {name}"
        for i, name in enumerate(transformed)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)
