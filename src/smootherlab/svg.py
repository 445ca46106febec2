"""Minimal SVG line charts, so sweep outputs can be eyeballed without a
plotting stack. Only what the CLI needs: polylines of summed squared loss
on a log y axis against a linear or log x axis, tick labels, and a
legend."""
from __future__ import annotations

from dataclasses import dataclass, field

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
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    dashed: bool = False

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValidationError(
                f"series {self.label!r}: x {self.x.shape} / y {self.y.shape}"
            )


@dataclass
class LineChart:
    title: str
    x_label: str
    log_x: bool = False
    series: list[Series] = field(default_factory=list)

    def add(self, label, x, y, dashed=False) -> None:
        self.series.append(Series(label, x, y, dashed))

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.series:
            raise ValidationError("chart has no series")
        xs = np.concatenate([s.x for s in self.series])
        ys = np.concatenate([s.y for s in self.series])
        finite = np.isfinite(xs) & np.isfinite(ys) & (ys > 0)
        if self.log_x:
            finite &= xs > 0
        if not finite.any():
            raise ValidationError("chart has no finite points")
        x_vals = np.log10(xs[finite]) if self.log_x else xs[finite]
        x_lo, x_hi = float(x_vals.min()), float(x_vals.max())
        y_vals = np.log10(ys[finite])
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
        for i, s in enumerate(self.series):
            color = _PALETTE[i % len(_PALETTE)]
            pts = []
            for xv, yv in zip(s.x, s.y):
                ok = np.isfinite(xv) and np.isfinite(yv) and yv > 0
                if self.log_x:
                    ok = ok and xv > 0
                if ok:
                    pts.append(f"{sx(xv):.2f},{sy(yv):.2f}")
            if not pts:
                continue
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
                f'points="{" ".join(pts)}"/>'
            )
        parts += self._legend()
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

    def _legend(self):
        out = []
        y = _MT + 6
        for i, s in enumerate(self.series):
            color = _PALETTE[i % len(_PALETTE)]
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            out.append(
                f'<line x1="{_W - _MR - 150}" y1="{y}" x2="{_W - _MR - 120}" '
                f'y2="{y}" stroke="{color}" stroke-width="1.5"{dash}/>'
            )
            out.append(
                f'<text x="{_W - _MR - 114}" y="{y + 4}">{_esc(s.label)}</text>'
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
