"""Self-contained SVG renderers for the three report figures: correlation
heatmap, PCA scree bars, and residuals-vs-fitted scatter.

Hand-written SVG keeps the outputs byte-deterministic and assertable (cell
colors, bar heights, and line positions are exact strings), with no plotting
dependency.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, LengthMismatch
from .panel_data import CSV_BLOCK

_CELL = 40
_PAD = 90
_FONT = "font-family='monospace' font-size='11'"


def _corr_color(r: float) -> str:
    """Diverging map: -1 -> pure blue, 0 -> white, +1 -> pure red."""
    r = min(1.0, max(-1.0, r))
    if r >= 0:
        other = round(255 * (1.0 - r))
        return f"rgb(255,{other},{other})"
    other = round(255 * (1.0 + r))
    return f"rgb({other},{other},255)"


def render_corr_heatmap(corr: np.ndarray, labels: list[str]) -> str:
    """Color-mapped correlation matrix with row/column labels and cell values.
    Each label is XML-escaped (its &, < and > become entities)."""
    corr = np.asarray(corr, dtype=float)
    k = corr.shape[0]
    if corr.shape != (k, k) or not np.isfinite(corr).all():
        raise DataError("correlation matrix must be square and finite")
    if len(labels) != k:
        raise LengthMismatch("need one label per matrix row")
    # as xml.sax.saxutils.escape writes them; importing it pulls in
    # urllib.request, about 7 MB and 45 ms per process
    labels = [n.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;") for n in labels]
    width = _PAD + k * _CELL + 10
    height = _PAD + k * _CELL + 10
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        "<rect width='100%' height='100%' fill='white'/>",
    ]
    for j, name in enumerate(labels):
        x = _PAD + j * _CELL + _CELL // 2
        parts.append(
            f"<text x='{x}' y='{_PAD - 8}' {_FONT} text-anchor='end' "
            f"transform='rotate(-60 {x} {_PAD - 8})'>{name}</text>"
        )
    for i, name in enumerate(labels):
        y = _PAD + i * _CELL + _CELL // 2 + 4
        parts.append(f"<text x='{_PAD - 6}' y='{y}' {_FONT} text-anchor='end'>{name}</text>")
    for i in range(k):
        for j in range(k):
            x, y = _PAD + j * _CELL, _PAD + i * _CELL
            parts.append(
                f"<rect x='{x}' y='{y}' width='{_CELL}' height='{_CELL}' "
                f"fill='{_corr_color(float(corr[i, j]))}' stroke='gray'/>"
            )
            parts.append(
                f"<text x='{x + _CELL // 2}' y='{y + _CELL // 2 + 4}' {_FONT} "
                f"text-anchor='middle'>{corr[i, j]:.2f}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts)


_SCREE_H = 240.0
_SCREE_BAR_W = 44


def render_scree(explained_ratio: np.ndarray) -> str:
    """Explained-variance bar chart; bar heights are exact fractions of the
    axis height, so they sum to it."""
    ratios = np.asarray(explained_ratio, dtype=float)
    if ratios.ndim != 1 or ratios.size == 0 or not np.isfinite(ratios).all():
        raise DataError("explained_ratio must be a non-empty finite vector")
    k = ratios.size
    width = 60 + k * (_SCREE_BAR_W + 12)
    height = int(_SCREE_H) + 70
    base = _SCREE_H + 30
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        "<rect width='100%' height='100%' fill='white'/>",
        f"<line x1='45' y1='30' x2='45' y2='{base:.1f}' stroke='black'/>",
        f"<line x1='45' y1='{base:.1f}' x2='{width - 10}' y2='{base:.1f}' stroke='black'/>",
    ]
    for i, r in enumerate(ratios):
        bar_h = r * _SCREE_H
        x = 55 + i * (_SCREE_BAR_W + 12)
        parts.append(
            f"<rect x='{x}' y='{base - bar_h:.4f}' width='{_SCREE_BAR_W}' "
            f"height='{bar_h:.4f}' fill='steelblue'/>"
        )
        parts.append(
            f"<text x='{x + _SCREE_BAR_W / 2:.1f}' y='{base + 16:.1f}' {_FONT} "
            f"text-anchor='middle'>PC{i + 1}</text>"
        )
        parts.append(
            f"<text x='{x + _SCREE_BAR_W / 2:.1f}' y='{base - bar_h - 5:.4f}' {_FONT} "
            f"text-anchor='middle'>{r:.3f}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


_SCATTER_W = 460.0
_SCATTER_H = 300.0


def render_residuals(fitted: np.ndarray, residuals: np.ndarray) -> str:
    """Residuals-vs-fitted scatter with a horizontal zero line. The circles
    are formatted CSV_BLOCK points at a time, one %-format per block, so no
    template or tuple of all the points is ever built."""
    fitted = np.asarray(fitted, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if fitted.shape != residuals.shape or fitted.ndim != 1 or fitted.size == 0:
        raise LengthMismatch("fitted and residuals must be equal-length vectors")
    if not (np.isfinite(fitted).all() and np.isfinite(residuals).all()):
        raise DataError("fitted and residuals must be finite")
    x_lo, x_hi = float(fitted.min()), float(fitted.max())
    r_max = float(np.max(np.abs(residuals)))
    y_lim = r_max if r_max > 0 else 1.0
    x_span = (x_hi - x_lo) if x_hi > x_lo else 1.0
    pad = 50.0

    # sx and sy map arrays: float64 ops round elementwise as they do on one
    # scalar, and "%.4f" prints a float as f"{v:.4f}" does
    def sx(v):
        return pad + (v - x_lo) / x_span * _SCATTER_W

    def sy(v):
        return pad + (1.0 - (v + y_lim) / (2.0 * y_lim)) * _SCATTER_H

    zero_y = sy(0.0)
    width = int(_SCATTER_W + 2 * pad)
    height = int(_SCATTER_H + 2 * pad)
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        "<rect width='100%' height='100%' fill='white'/>",
        f"<line x1='{pad:.1f}' y1='{zero_y:.4f}' x2='{pad + _SCATTER_W:.1f}' "
        f"y2='{zero_y:.4f}' stroke='black' stroke-dasharray='4 3'/>",
        f"<text x='{pad:.1f}' y='{height - 12}' {_FONT}>fitted</text>",
        f"<text x='12' y='{pad:.1f}' {_FONT}>residual</text>",
    ]
    circle = "<circle cx='%.4f' cy='%.4f' r='2.5' fill='steelblue' fill-opacity='0.55'/>"
    for start in range(0, fitted.size, CSV_BLOCK):
        block = slice(start, start + CSV_BLOCK)
        centers = np.column_stack([sx(fitted[block]), sy(residuals[block])]).ravel().tolist()
        parts.append("\n".join([circle] * (len(centers) // 2)) % tuple(centers))
    parts.append("</svg>")
    return "\n".join(parts)
