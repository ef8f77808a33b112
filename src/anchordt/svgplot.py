"""Hand-rolled static SVG emission: scatter panels and line charts.

No plotting dependency: the files are plain text with fixed-precision
coordinates and index-hashed colors, so identical inputs give byte-identical
SVGs and runs can be diffed.  Text nodes are escaped, so any label gives
well-formed XML.
"""

from __future__ import annotations

import hashlib
import math

PANEL = 320          # px per panel, including margin
MARGIN = 42
POINT_RADIUS = 1.6


def color_for_index(i: int) -> str:
    """Stable per-sample color from an md5 hash of the index.

    Values are squeezed into [48, 208) per channel to stay visible on white.
    """
    digest = hashlib.md5(str(i).encode("ascii")).digest()
    r, g, b = (48 + v % 160 for v in digest[:3])
    return f"#{r:02x}{g:02x}{b:02x}"


def _axis_bounds(panels):
    xs, ys = [], []
    for _, pts, _ in panels:
        for (px, py) in pts:
            xs.append(px)
            ys.append(py)
    if not xs:
        raise ValueError("no points to plot")
    pad_x = 0.05 * (max(xs) - min(xs) or 1.0)
    pad_y = 0.05 * (max(ys) - min(ys) or 1.0)
    return min(xs) - pad_x, max(xs) + pad_x, min(ys) - pad_y, max(ys) + pad_y


def _escape(text):
    # xml.sax.saxutils.escape; importing xml.sax costs every CLI verb 2.5 MB
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write(path, lines):
    lines.append("</svg>")
    with open(path, "w", encoding="ascii", errors="xmlcharrefreplace") as fh:
        fh.write("\n".join(lines) + "\n")


def scatter_panels(path, panels):
    """Write side-by-side scatter panels sharing axes.

    ``panels`` is a list of (title, points, colors) where points is an
    iterable of (x, y) and colors a parallel list of "#rrggbb" strings;
    corresponding indices across panels should share colors so point
    identity is traceable between panels.
    """
    x_lo, x_hi, y_lo, y_hi = _axis_bounds(panels)
    inner = PANEL - 2 * MARGIN
    width = PANEL * len(panels)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{PANEL}" viewBox="0 0 {width} {PANEL}">',
        f'<rect width="{width}" height="{PANEL}" fill="white"/>',
    ]
    for p, (title, pts, colors) in enumerate(panels):
        ox = p * PANEL + MARGIN
        oy = MARGIN
        lines.append(
            f'<rect x="{ox}" y="{oy}" width="{inner}" height="{inner}" '
            f'fill="none" stroke="#404040" stroke-width="1"/>')
        lines.append(
            f'<text x="{ox + inner / 2:.1f}" y="{oy - 10}" font-size="13" '
            f'font-family="sans-serif" text-anchor="middle">{_escape(title)}</text>')
        for (xv, yv), color in zip(pts, colors):
            cx = ox + inner * (xv - x_lo) / (x_hi - x_lo)
            cy = oy + inner * (1.0 - (yv - y_lo) / (y_hi - y_lo))
            lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" '
                         f'r="{POINT_RADIUS}" fill="{color}"/>')
    _write(path, lines)


def line_chart(path, xs, ys, title, x_label, y_label, log_y=False):
    """Single polyline chart with point markers; optionally log10 y."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and nonempty")
    yvals = [math.log10(v) for v in ys] if log_y else list(ys)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(yvals), max(yvals)
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0
    size = 2 * PANEL
    inner = size - 2 * MARGIN
    def sx(v):
        return MARGIN + inner * (v - x_lo) / span_x
    def sy(v):
        return MARGIN + inner * (1.0 - (v - y_lo) / span_y)
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, yvals))
    y_title = f"log10 {y_label}" if log_y else y_label
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{inner}" height="{inner}" '
        f'fill="none" stroke="#404040" stroke-width="1"/>',
        f'<text x="{size / 2:.1f}" y="{MARGIN - 14}" font-size="14" '
        f'font-family="sans-serif" text-anchor="middle">{_escape(title)}</text>',
        f'<text x="{size / 2:.1f}" y="{size - 8}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle">{_escape(x_label)}</text>',
        f'<text x="12" y="{size / 2:.1f}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle" transform="rotate(-90 12 {size / 2:.1f})">'
        f'{_escape(y_title)}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>',
    ]
    for x, y in zip(xs, yvals):
        lines.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f5fa8"/>')
        lines.append(f'<text x="{sx(x):.2f}" y="{size - MARGIN + 16}" font-size="10" '
                     f'font-family="sans-serif" text-anchor="middle">{x:g}</text>')
    _write(path, lines)
