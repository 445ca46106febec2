"""Minimal SVG line charts, so sweep outputs can be eyeballed without a
plotting stack. Only what the CLI needs: polylines of summed squared loss
on a log y axis against a linear or log x axis, tick labels, and a
legend."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tableio import atomic_write_text

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 16, 36, 48  # margins
_Y_LABEL = "summed squared loss"


@dataclass
class LineChart:
    """A chart of `series`, (label, x, y[, dashed]) tuples, one line each."""

    title: str
    x_label: str
    series: list
    log_x: bool = False

    def render(self) -> str:
        # each series' drawable points: finite, y > 0 and, on a log x axis, x > 0
        lines = []
        for label, x, y, *dashed in self.series:
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            ok = np.isfinite(x) & np.isfinite(y) & (y > 0)
            if self.log_x:
                ok &= x > 0
            lines.append((label, x[ok], y[ok], any(dashed)))
        if not any(len(x) for _, x, _, _ in lines):
            raise ValidationError("chart has no drawable points")
        xs = np.concatenate([x for _, x, _, _ in lines])
        ys = np.concatenate([y for _, _, y, _ in lines])
        x_vals = np.log10(xs) if self.log_x else xs
        x_lo, x_hi = float(x_vals.min()), float(x_vals.max())
        y_vals = np.log10(ys)
        y_lo, y_hi = float(y_vals.min()), float(y_vals.max())
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0

        def sx(v):
            v = np.log10(v) if self.log_x else v
            return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

        def sy(v):
            v = np.log10(v)
            return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{_esc(self.title)}</text>',
        ]
        parts += self._axes(x_lo, x_hi, y_lo, y_hi)
        for i, (_, x, y, dashed) in enumerate(lines):
            if not len(x):
                continue
            color = _PALETTE[i % len(_PALETTE)]
            pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
                f'points="{pts}"/>'
            )
        parts += self._legend(lines)
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def _axes(self, x_lo, x_hi, y_lo, y_hi):
        out = [
            f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
            'stroke="black"/>',
            f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
            f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
            f'text-anchor="middle">{_esc(self.x_label)}</text>',
            f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">'
            f"{_Y_LABEL}</text>",
        ]
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = x_lo + frac * (x_hi - x_lo)
            px = _ML + frac * (_W - _ML - _MR)
            x_label = 10**xv if self.log_x else xv
            out.append(
                f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" '
                f'y2="{_H - _MB + 4}" stroke="black"/>'
            )
            out.append(
                f'<text x="{px:.1f}" y="{_H - _MB + 18}" '
                f'text-anchor="middle">{_fmt(x_label)}</text>'
            )
            yv = y_lo + frac * (y_hi - y_lo)
            py = _H - _MB - frac * (_H - _MT - _MB)
            label = 10**yv
            out.append(
                f'<line x1="{_ML - 4}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" '
                'stroke="black"/>'
            )
            out.append(
                f'<text x="{_ML - 8}" y="{py + 4:.1f}" '
                f'text-anchor="end">{_fmt(label)}</text>'
            )
        return out

    def _legend(self, lines):
        out = []
        y = _MT + 6
        for i, (label, _, _, dashed) in enumerate(lines):
            color = _PALETTE[i % len(_PALETTE)]
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            out.append(
                f'<line x1="{_W - _MR - 150}" y1="{y}" x2="{_W - _MR - 120}" '
                f'y2="{y}" stroke="{color}" stroke-width="1.5"{dash}/>'
            )
            out.append(
                f'<text x="{_W - _MR - 114}" y="{y + 4}">{_esc(label)}</text>'
            )
            y += 16
        return out

    def write(self, path) -> None:
        atomic_write_text(path, self.render())


def _fmt(v: float) -> str:
    a = abs(v)
    if v == 0:
        return "0"
    if a >= 1e4 or a < 1e-3:
        return f"{v:.1e}"
    if a >= 100:
        return f"{v:.0f}"
    return f"{v:.3g}"


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
