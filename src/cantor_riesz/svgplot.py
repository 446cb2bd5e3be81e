"""Tiny deterministic SVG plots (lines and bars), no plotting dependency.

Output depends only on the input data — fixed palette, fixed layout, no
timestamps and no randomness — so identical tables give identical bytes,
which the determinism checks rely on.
"""

from __future__ import annotations

import math

from .errors import ParameterError

__all__ = ["bar_plot", "line_plot"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62.0, 18.0, 34.0, 46.0


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _spread(lo: float, hi: float) -> tuple[float, float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError("plot data must be finite")
    if lo == hi:
        pad = 0.5 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    return lo, hi


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.6g}" y="20" font-family="monospace" font-size="13" '
            f'text-anchor="middle">{_esc(title)}</text>',
            f'<text x="{_W / 2:.6g}" y="{_H - 8}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{_esc(xlabel)}</text>',
            f'<text x="14" y="{_H / 2:.6g}" font-family="monospace" font-size="11" '
            f'text-anchor="middle" transform="rotate(-90 14 {_H / 2:.6g})">{_esc(ylabel)}</text>',
            f'<rect x="{_ML:.6g}" y="{_MT:.6g}" width="{_W - _ML - _MR:.6g}" '
            f'height="{_H - _MT - _MB:.6g}" fill="none" stroke="#888"/>',
        ]

    def y_ticks(self, lo: float, hi: float) -> None:
        """Tick marks and labels on the left axis for the y range [lo, hi]."""
        for t in _ticks(lo, hi):
            py = _y_of(t, lo, hi)
            self.parts.append(
                f'<line x1="{_ML - 4:.6g}" y1="{py:.6g}" x2="{_ML:.6g}" '
                f'y2="{py:.6g}" stroke="#888"/>'
            )
            self.parts.append(
                f'<text x="{_ML - 6:.6g}" y="{py + 3:.6g}" font-family="monospace" '
                f'font-size="10" text-anchor="end">{_fmt(t)}</text>'
            )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _x_of(v, lo, hi):
    return _ML + (v - lo) / (hi - lo) * (_W - _ML - _MR)


def _y_of(v, lo, hi):
    return _H - _MB - (v - lo) / (hi - lo) * (_H - _MT - _MB)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def line_plot(series, title: str, xlabel: str, ylabel: str) -> str:
    """Polyline plot; `series` is a sequence of (label, xs, ys) triples."""
    series = [(str(lbl), list(xs), list(ys)) for lbl, xs, ys in series]
    if not series or all(not xs for _, xs, _ in series):
        raise ParameterError("line_plot needs at least one nonempty series")
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise ParameterError("series xs and ys lengths differ")
        if not all(math.isfinite(v) for v in xs + ys):
            raise ParameterError("plot data must be finite")

    all_x = [v for _, xs, _ in series for v in xs]
    all_y = [v for _, _, ys in series for v in ys]
    x_lo, x_hi = _spread(min(all_x), max(all_x))
    y_lo, y_hi = _spread(min(all_y), max(all_y))

    cv = _Canvas(title, xlabel, ylabel)
    for t in _ticks(x_lo, x_hi):
        px = _x_of(t, x_lo, x_hi)
        cv.parts.append(
            f'<line x1="{px:.6g}" y1="{_H - _MB:.6g}" x2="{px:.6g}" '
            f'y2="{_H - _MB + 4:.6g}" stroke="#888"/>'
        )
        cv.parts.append(
            f'<text x="{px:.6g}" y="{_H - _MB + 16:.6g}" font-family="monospace" '
            f'font-size="10" text-anchor="middle">{_fmt(t)}</text>'
        )
    cv.y_ticks(y_lo, y_hi)
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            f"{_x_of(x, x_lo, x_hi):.6g},{_y_of(y, y_lo, y_hi):.6g}"
            for x, y in zip(xs, ys)
        )
        if len(xs) > 1:
            cv.parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in zip(xs, ys):
            cv.parts.append(
                f'<circle cx="{_x_of(x, x_lo, x_hi):.6g}" '
                f'cy="{_y_of(y, y_lo, y_hi):.6g}" r="2.5" fill="{color}"/>'
            )
        ly = _MT + 14 + 14 * i
        cv.parts.append(
            f'<line x1="{_W - _MR - 150:.6g}" y1="{ly:.6g}" '
            f'x2="{_W - _MR - 130:.6g}" y2="{ly:.6g}" stroke="{color}" stroke-width="1.5"/>'
        )
        cv.parts.append(
            f'<text x="{_W - _MR - 126:.6g}" y="{ly + 3:.6g}" font-family="monospace" '
            f'font-size="10">{_esc(label)}</text>'
        )
    return cv.finish()


def bar_plot(values, title: str, xlabel: str, ylabel: str) -> str:
    """Bar chart of values indexed 0..len-1."""
    values = [float(v) for v in values]
    if not values:
        raise ParameterError("bar_plot needs at least one value")
    if not all(math.isfinite(v) for v in values):
        raise ParameterError("plot data must be finite")
    y_lo, y_hi = _spread(min(0.0, min(values)), max(0.0, max(values)))
    x_lo, x_hi = -0.75, len(values) - 0.25
    cv = _Canvas(title, xlabel, ylabel)
    cv.y_ticks(y_lo, y_hi)
    base = _y_of(max(y_lo, min(0.0, y_hi)), y_lo, y_hi)
    width = (_W - _ML - _MR) / (x_hi - x_lo) * 0.7
    step = max(1, len(values) // 16)
    for j, v in enumerate(values):
        px = _x_of(j, x_lo, x_hi)
        py = _y_of(v, y_lo, y_hi)
        top, hgt = min(py, base), abs(base - py)
        cv.parts.append(
            f'<rect x="{px - width / 2:.6g}" y="{top:.6g}" width="{width:.6g}" '
            f'height="{hgt:.6g}" fill="{PALETTE[0]}"/>'
        )
        if j % step == 0:
            cv.parts.append(
                f'<text x="{px:.6g}" y="{_H - _MB + 16:.6g}" font-family="monospace" '
                f'font-size="10" text-anchor="middle">{j}</text>'
            )
    return cv.finish()
