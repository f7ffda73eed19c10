"""Minimal static SVG line plots.

Only what the command-line tool needs: one axes box, a few polyline series
with automatic ranges and ticks.  Writing our own keeps plotting out of the
dependency footprint; the outputs are simple figure analogues, not an
interactive surface.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick locations covering [lo, hi]."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_plot(
    path,
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a line plot to an SVG file.

    series is a sequence of (label, xs, ys) triples; ranges and ticks are
    automatic.
    """
    if not series:
        raise InvalidParameterError("nothing to plot")
    cleaned = []
    for label, xs, ys in series:
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys) or not xs:
            raise InvalidParameterError(f"series {label!r}: mismatched or empty data")
        cleaned.append((label, xs, ys))

    x_lo = min(min(xs) for _, xs, _ in cleaned)
    x_hi = max(max(xs) for _, xs, _ in cleaned)
    y_lo = min(min(ys) for _, _, ys in cleaned)
    y_hi = max(max(ys) for _, _, ys in cleaned)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{px_w}" height="{px_h}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + px_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + px_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + px_h + 18}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + px_w / 2:.1f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        yc = _MARGIN_T + px_h / 2
        parts.append(
            f'<text x="14" y="{yc:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {yc:.1f})">{ylabel}</text>'
        )
    for i, (label, xs, ys) in enumerate(cleaned):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        if label:
            ly = _MARGIN_T + 16 + 16 * i
            lx = _MARGIN_L + px_w - 150
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
