"""Tiny dependency-free SVG emitters for log-log line plots and node heat maps."""

from __future__ import annotations

import math

import numpy as np

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float, n: int = 6):
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(v)
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(path, xs, series: dict, title: str = "", xlabel: str = "",
              ylabel: str = "") -> None:
    """Write a log-log polyline plot; series maps label -> positive y values."""
    tx = np.log10(np.asarray(xs, dtype=float))
    ty_all = np.log10(np.concatenate([np.asarray(v, float) for v in series.values()]))
    x0, x1 = float(tx.min()), float(tx.max())
    y0, y1 = float(ty_all.min()), float(ty_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    for v in _ticks(x0, x1):
        X = sx(v)
        label = _fmt(10 ** v)
        parts.append(f'<line x1="{X:.1f}" y1="{_MT}" x2="{X:.1f}" y2="{_H-_MB}" '
                     'stroke="#dddddd"/>')
        parts.append(f'<text x="{X:.1f}" y="{_H-_MB+18}" text-anchor="middle" '
                     f'font-size="11">{label}</text>')
    for v in _ticks(y0, y1):
        Y = sy(v)
        label = _fmt(10 ** v)
        parts.append(f'<line x1="{_ML}" y1="{Y:.1f}" x2="{_W-_MR}" y2="{Y:.1f}" '
                     'stroke="#dddddd"/>')
        parts.append(f'<text x="{_ML-6}" y="{Y+4:.1f}" text-anchor="end" '
                     f'font-size="11">{label}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" '
                 f'height="{_H-_MT-_MB}" fill="none" stroke="black"/>')
    for k, (label, ys) in enumerate(series.items()):
        ty = np.log10(np.asarray(ys, float))
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(tx, ty))
        c = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{c}" stroke-width="2"/>')
        parts.append(f'<text x="{_W-_MR-8}" y="{_MT+16+14*k}" text-anchor="end" '
                     f'font-size="12" fill="{c}">{label}</text>')
    parts.append(f'<text x="{_W/2}" y="{_H-12}" text-anchor="middle" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H/2}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 16 {_H/2})">{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _color(v: float) -> str:
    # blue (0) -> white (0.5) -> red (1), v in [0, 1]
    if v < 0.5:
        q = v / 0.5
        r, g, b = int(255 * q), int(255 * q), 255
    else:
        q = (v - 0.5) / 0.5
        r, g, b = 255, int(255 * (1 - q)), int(255 * (1 - q))
    return f"#{r:02x}{g:02x}{b:02x}"


def node_heatmap(path, grid, values, title: str = "") -> None:
    """Color each (s,t) cell of the triangle grid by its profile value."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    size = 560
    scale = (size - 80) / grid.R_out
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>',
             f'<text x="{size/2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    for s, t, v in zip(grid.s, grid.t, values):
        x = 50 + (s - 0.5 * grid.h) * scale
        y = size - 40 - (t + 0.5 * grid.h) * scale
        w = grid.h * scale
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.2f}" height="{w:.2f}" '
                     f'fill="{_color((v - lo) / span)}"/>')
    diag = grid.R_out / math.sqrt(2.0)
    parts.append(f'<line x1="50" y1="{size-40}" '
                 f'x2="{50 + diag*scale:.1f}" y2="{size-40-diag*scale:.1f}" '
                 'stroke="black" stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{size/2}" y="{size-8}" text-anchor="middle" font-size="12">'
                 f's (value range [{lo:.3f}, {hi:.3f}])</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
