"""Hand-rolled SVG line plots and heatmaps.

Figures here are static artifacts for run directories; no plotting
framework is pulled in.  Everything is data-driven string assembly with
deterministic output.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = ["line_plot", "heatmap"]

WIDTH, HEIGHT = 640, 480
MARGIN = 60

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _scale(vals, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return [(out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)) for v in vals]


def _axes(title: str, xlabel: str, ylabel: str) -> List[str]:
    return [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>',
        f'<text x="{WIDTH / 2}" y="25" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {HEIGHT / 2})">{ylabel}</text>',
    ]


def line_plot(series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
              title: str = "", xlabel: str = "", ylabel: str = "",
              log_y: bool = False) -> str:
    """Multi-series scatter/line plot; series = [(label, xs, ys), ...]."""
    xs_all, ys_all = [], []
    for _, xs, ys in series:
        xs_all.extend(xs)
        ys_all.extend(math.log10(y) if log_y else y for y in ys if not log_y or y > 0)
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">']
    parts += _axes(title, xlabel, ylabel + (" (log10)" if log_y else ""))
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = [
            (x, math.log10(y) if log_y else y)
            for x, y in zip(xs, ys) if not log_y or y > 0
        ]
        px = _scale([p[0] for p in pts], x_lo, x_hi, MARGIN, WIDTH - MARGIN)
        py = _scale([p[1] for p in pts], y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}"/>')
        for x, y in zip(px, py):
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN + 5}" y="{MARGIN + 16 * i + 12}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _color_of(frac: float) -> str:
    """Blue (low) to yellow (high)."""
    frac = min(max(frac, 0.0), 1.0)
    r = int(255 * frac)
    g = int(255 * frac)
    b = int(255 * (1.0 - frac) * 0.6 + 80)
    return f"rgb({r},{g},{b})"


def heatmap(values, a_vals, b_vals,
            markers: Optional[Sequence[Tuple[float, float, str]]] = None,
            title: str = "", xlabel: str = "a", ylabel: str = "b") -> str:
    """Heatmap of values[i][j] over (a_vals[i], b_vals[j]) with markers.

    NaN cells render grey.  markers = [(a, b, color), ...].
    """
    na, nb = len(a_vals), len(b_vals)
    cell_w = (WIDTH - 2 * MARGIN) / na
    cell_h = (HEIGHT - 2 * MARGIN) / nb
    finite = [v for row in values for v in row if not math.isnan(v)]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">']
    parts += _axes(title, xlabel, ylabel)
    for i in range(na):
        for j in range(nb):
            v = values[i][j]
            color = "#999999" if math.isnan(v) else _color_of((v - lo) / (hi - lo or 1.0))
            x = MARGIN + i * cell_w
            y = HEIGHT - MARGIN - (j + 1) * cell_h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{color}"/>'
            )
    for a, b, color in markers or []:
        ia = (a - a_vals[0]) / (a_vals[-1] - a_vals[0]) * (na - 1)
        ib = (b - b_vals[0]) / (b_vals[-1] - b_vals[0]) * (nb - 1)
        x = MARGIN + (ia + 0.5) * cell_w
        y = HEIGHT - MARGIN - (ib + 0.5) * cell_h
        parts.append(
            f'<path d="M {x:.2f} {y - 6:.2f} L {x + 6:.2f} {y:.2f} '
            f'L {x:.2f} {y + 6:.2f} L {x - 6:.2f} {y:.2f} Z" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
