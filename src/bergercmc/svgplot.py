"""Deterministic file output: CSV tables and minimal SVG polyline plots."""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
WIDTH, HEIGHT = 640, 480  # SVG canvas in pixels


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return repr(float(v))


def write_csv(path, header, rows) -> None:
    """Write a CSV file with one header line.

    Integer cells are written as integers, strings as they are and every
    other cell as the shortest round-trip float repr, so equal input gives
    byte-identical files.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def polyline_svg(path, curves, title="", xlabel="", ylabel="") -> None:
    """Write polyline curves to an SVG file.

    curves: iterable of (x, y, label) with array-likes x, y.  Axes with five
    ticks per side; fixed palette; output is byte-stable for equal input.
    """
    curves = [(np.asarray(x, float), np.asarray(y, float), str(lab)) for x, y, lab in curves]
    finite = [(x[np.isfinite(x) & np.isfinite(y)], y[np.isfinite(x) & np.isfinite(y)])
              for x, y, _ in curves]
    xs = np.concatenate([c[0] for c in finite])
    ys = np.concatenate([c[1] for c in finite])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    def X(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def Y(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for i in range(5):
        tx = x0 + (x1 - x0) * i / 4
        ty = y0 + (y1 - y0) * i / 4
        lines.append(f'<line x1="{X(tx):.2f}" y1="{mt+ph}" x2="{X(tx):.2f}" '
                     f'y2="{mt+ph+5}" stroke="black"/>')
        lines.append(f'<text x="{X(tx):.2f}" y="{mt+ph+18}" text-anchor="middle" '
                     f'font-size="11">{tx:.6g}</text>')
        lines.append(f'<line x1="{ml-5}" y1="{Y(ty):.2f}" x2="{ml}" '
                     f'y2="{Y(ty):.2f}" stroke="black"/>')
        lines.append(f'<text x="{ml-8}" y="{Y(ty)+4:.2f}" text-anchor="end" '
                     f'font-size="11">{ty:.6g}</text>')
    lines.append(f'<text x="{ml+pw/2:.1f}" y="{HEIGHT-10}" text-anchor="middle" '
                 f'font-size="12">{xlabel}</text>')
    lines.append(f'<text x="18" y="{mt+ph/2:.1f}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 18 {mt+ph/2:.1f})">{ylabel}</text>')
    for i, (x, y, lab) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(x, y)
                       if np.isfinite(a) and np.isfinite(b))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        lines.append(f'<text x="{ml+pw-8}" y="{mt+16+14*i}" text-anchor="end" fill="{color}" '
                     f'font-size="11">{lab}</text>')
    lines.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
