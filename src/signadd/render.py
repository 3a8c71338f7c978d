"""Minimal SVG line plots: axes, one polyline, no dependencies.

Output is a pure function of the data, so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .operator import ContractError, _require_finite

__all__ = ["line_svg"]

_W, _H = 720, 400
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _text(x, y, anchor: str, size: int, body: str, extra: str = "") -> str:
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def _line(x1, y1, x2, y2) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="1"/>'


def line_svg(x, y, title: str, xlabel: str, ylabel: str,
             manifest_name: str | None = None) -> str:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ContractError("line_svg: need two equal-length series of >= 2 points")
    _require_finite("line_svg", x, y)
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
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px.tolist(), py.tolist()))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
    ]
    if manifest_name:
        parts.append(f"<!-- manifest={manifest_name} -->")
    parts += [
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _text(_W // 2, 24, "middle", 15, title),
        _line(_ML, _MT, _ML, _H - _MB),  # axes
        _line(_ML, _H - _MB, _W - _MR, _H - _MB),
        _text(_ML, _H - _MB + 18, "middle", 11, f"{x0:.6g}"),  # range labels
        _text(_W - _MR, _H - _MB + 18, "middle", 11, f"{x1:.6g}"),
        _text(_ML - 8, _H - _MB, "end", 11, f"{y0:.6g}"),
        _text(_ML - 8, _MT + 4, "end", 11, f"{y1:.6g}"),
        _text(_ML + pw // 2, _H - 12, "middle", 12, xlabel),  # axis titles
        _text(16, _MT + ph // 2, "middle", 12, ylabel,
              f' transform="rotate(-90 16 {_MT + ph // 2})"'),
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.2"/>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
