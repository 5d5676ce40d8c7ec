"""Minimal dependency-free SVG line charts on log axes, for `simulate --svg`."""

from __future__ import annotations

import math

__all__ = ["write_line_chart"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(vals: list[float]) -> list[float]:
    """The powers of ten that span `vals`; none for no values."""
    if not vals:
        return []
    lo_e = math.floor(math.log10(min(vals)))
    hi_e = math.ceil(math.log10(max(vals)))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def write_line_chart(
    path,
    series: dict[str, list[tuple[float, float]]],
    xlabel: str,
    ylabel: str,
) -> None:
    """Write one polyline per series with circles at the data points, on
    log10 axes. Colours go to families in order of first appearance, and a
    series "<family> H1" is dashed in its family's colour. A point that a
    log axis cannot place (a coordinate that is not finite or not positive)
    is left out, and so is a series left with no point; with no point left
    at all, the chart holds only its axes and labels. Raises ValueError if
    `series` names no series."""
    if not series:
        raise ValueError("no series to plot")
    series = {name: [(x, y) for x, y in pts if 0.0 < x < math.inf and 0.0 < y < math.inf]
              for name, pts in series.items()}
    series = {name: pts for name, pts in series.items() if pts}
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" stroke="black"/>',
        f'<text x="{(_ML+_W-_MR)/2}" y="{_H-12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{(_MT+_H-_MB)/2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT+_H-_MB)/2})">{ylabel}</text>',
    ]
    x0, x1 = min(map(math.log10, xs), default=0.0), max(map(math.log10, xs), default=0.0)
    y0, y1 = min(map(math.log10, ys), default=0.0), max(map(math.log10, ys), default=0.0)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def px(v):
        return _ML + (math.log10(v) - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (math.log10(v) - y0) / (y1 - y0) * (_H - _MT - _MB)

    for t in _ticks(xs):
        x = px(t)
        if _ML - 1 <= x <= _W - _MR + 1:
            parts.append(f'<line x1="{x:.1f}" y1="{_H-_MB}" x2="{x:.1f}" y2="{_H-_MB+5}" stroke="black"/>')
            parts.append(f'<text x="{x:.1f}" y="{_H-_MB+18}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(ys):
        y = py(t)
        if _MT - 1 <= y <= _H - _MB + 1:
            parts.append(f'<line x1="{_ML-5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
            parts.append(f'<text x="{_ML-8}" y="{y+4:.1f}" text-anchor="end">{t:g}</text>')
    families: dict[str, str] = {}
    for i, (name, pts) in enumerate(series.items()):
        color = families.setdefault(name.removesuffix(" H1"), _COLORS[len(families) % len(_COLORS)])
        dash = ' stroke-dasharray="6,4"' if name.endswith(" H1") else ""
        pts = sorted(pts)
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{_W-_MR-6}" y="{_MT+14+16*i}" text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
