"""Minimal deterministic SVG line plots for residual curves.

Hand-rolled on purpose: output bytes depend only on the input data, so
identical runs produce identical plot files.  The y axis is log-scaled
with ticks at decade boundaries; points at or below zero are dropped
from their polyline (they have no log position).
"""

import math
from xml.sax.saxutils import escape

_WIDTH = 640
_HEIGHT = 480
_ML, _MR, _MT, _MB = 70, 24, 24, 48

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _x_ticks(kmax):
    if kmax <= 0:
        return [0]
    raw = kmax / 6.0
    mag = 10 ** math.floor(math.log10(raw)) if raw >= 1 else 1
    step = next(
        (s * mag for s in (1, 2, 5, 10) if s * mag >= raw),
        10 * mag,
    )
    step = int(step)
    return list(range(0, kmax + 1, step))


def plot_residual_curves(curves, out_path, title=""):
    """Write one SVG of labeled curves; curves = [(label, [(k, value), ...])].

    Values must contain at least one positive entry overall.
    """
    if not curves:
        raise ValueError("no curves to plot")
    kmax = 0
    positives = []
    for _label, pts in curves:
        for k, v in pts:
            kmax = max(kmax, int(k))
            if v > 0.0 and math.isfinite(v):
                positives.append(v)
    if not positives:
        raise ValueError("curves contain no positive finite values")
    lo_exp = math.floor(math.log10(min(positives)))
    hi_exp = math.ceil(math.log10(max(positives)))
    if hi_exp == lo_exp:
        hi_exp += 1
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def px(k):
        frac = 0.0 if kmax == 0 else k / kmax
        return _ML + frac * plot_w

    def py(v):
        frac = (math.log10(v) - lo_exp) / (hi_exp - lo_exp)
        return _MT + (1.0 - frac) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.2f}" y="16" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(title)}</text>'
        )
    # Axes box
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    # Decade ticks and gridlines
    for e in range(lo_exp, hi_exp + 1):
        y = py(10.0**e)
        out.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + plot_w}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{e}</text>'
        )
    for k in _x_ticks(kmax):
        x = px(k)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT + plot_h}" x2="{x:.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{k}</text>'
        )
    out.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_HEIGHT - 10}" '
        'text-anchor="middle" font-family="sans-serif" font-size="12">'
        "iteration k</text>"
    )
    out.append(
        f'<text x="16" y="{_MT + plot_h / 2:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.2f})">'
        "normalized residual</text>"
    )
    # Curves
    for idx, (label, pts) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            f"{px(k):.2f},{py(v):.2f}"
            for k, v in pts
            if v > 0.0 and math.isfinite(v)
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    # Legend, top right inside the plot box
    for idx, (label, _pts) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        y = _MT + 14 + 16 * idx
        x0 = _ML + plot_w - 150
        out.append(
            f'<line x1="{x0}" y1="{y}" x2="{x0 + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{x0 + 28}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{escape(label)}</text>'
        )
    out.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(out) + "\n")
