"""Minimal SVG line plots: axes, one polyline, no dependencies.

Output is a pure function of the data, so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .operator import ContractError

__all__ = ["line_svg"]

_W, _H = 720, 400
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_svg(x, y, title: str, xlabel: str, ylabel: str,
             manifest_name: str | None = None) -> str:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ContractError("line_svg: need two equal-length series of >= 2 points")
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB
    px = _ML + (x - x0) / (x1 - x0) * pw
    py = _MT + (y1 - y) / (y1 - y0) * ph
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
    ]
    if manifest_name:
        parts.append(f"<!-- manifest={manifest_name} -->")
    parts += [
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        # axes
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>',
        # range labels
        f'<text x="{_ML}" y="{_H - _MB + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{_fmt(x0)}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{_fmt(x1)}</text>',
        f'<text x="{_ML - 8}" y="{_H - _MB}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{_fmt(y0)}</text>',
        f'<text x="{_ML - 8}" y="{_MT + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{_fmt(y1)}</text>',
        # axis titles
        f'<text x="{_ML + pw // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_MT + ph // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + ph // 2})">{ylabel}</text>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" '
        f'stroke-width="1.2"/>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
