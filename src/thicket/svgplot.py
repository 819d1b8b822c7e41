"""Static SVG rendering of barcodes and circle sheaves.

Bars are drawn as horizontal lines grouped into per-degree row bands with
endpoint kind markers (filled caps closed, hollow caps open, arrowheads for
infinite ends); circle sheaves are drawn on an annulus, one radius per
spiral, bands as dashed full circles.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .barcode import CLOSED, GradedBarcode
from .circle import CircleSheaf
from .scalars import is_finite

W, H = 640, 60
ROW = 26
PAD = 40

DEGREE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
                 "#e377c2"]


def _color(degree: int) -> str:
    return DEGREE_COLORS[degree % len(DEGREE_COLORS)]


def _svg(width, height, body) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    frame = (f'<rect x="1" y="1" width="{width - 2}" height="{height - 2}" '
             'fill="white" stroke="#444"/>')
    return "\n".join([head, frame] + body + ["</svg>"]) + "\n"


def barcode_svg(F: GradedBarcode) -> str:
    if not F.bars:
        return _svg(W, H, ['<text x="20" y="35" font-size="12">'
                           'empty barcode</text>'])
    finite = F.finite_endpoints()
    lo = min(finite) if finite else Fraction(0)
    hi = max(finite) if finite else Fraction(1)
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    span = hi - lo

    def sx(value):
        return PAD + float((value - lo) / span) * (W - 2 * PAD)

    body = []
    height = 2 * PAD + ROW * len(F.bars)
    y = PAD
    last_degree = None
    for b in F.bars:
        color = _color(b.degree)
        x0 = sx(b.iv.left) if is_finite(b.iv.left) else 8
        x1 = sx(b.iv.right) if is_finite(b.iv.right) else W - 8
        body.append(f'<line x1="{x0:.1f}" y1="{y}" x2="{x1:.1f}" y2="{y}" '
                    f'stroke="{color}" stroke-width="3"/>')
        if is_finite(b.iv.left):
            fill = color if b.iv.lkind is CLOSED else "white"
            body.append(f'<circle cx="{x0:.1f}" cy="{y}" r="4" fill="{fill}" '
                        f'stroke="{color}"/>')
        else:
            body.append(f'<path d="M {x0 + 8:.1f} {y - 4} L {x0:.1f} {y} '
                        f'L {x0 + 8:.1f} {y + 4}" fill="none" stroke="{color}"/>')
        if is_finite(b.iv.right):
            fill = color if b.iv.rkind is CLOSED else "white"
            body.append(f'<circle cx="{x1:.1f}" cy="{y}" r="4" fill="{fill}" '
                        f'stroke="{color}"/>')
        else:
            body.append(f'<path d="M {x1 - 8:.1f} {y - 4} L {x1:.1f} {y} '
                        f'L {x1 - 8:.1f} {y + 4}" fill="none" stroke="{color}"/>')
        if b.degree != last_degree:
            body.append(f'<text x="6" y="{y + 4}" font-size="11" '
                        f'fill="{color}">deg {b.degree}</text>')
            last_degree = b.degree
        y += ROW
    body.append(f'<line x1="{PAD}" y1="{height - 18}" x2="{W - PAD}" '
                f'y2="{height - 18}" stroke="#888"/>')
    body.append(f'<text x="{PAD}" y="{height - 6}" font-size="10">'
                f'{lo}</text>')
    body.append(f'<text x="{W - PAD - 10}" y="{height - 6}" font-size="10">'
                f'{hi}</text>')
    return _svg(W, height, body)


def circle_svg(F: CircleSheaf) -> str:
    size = 420
    cx = cy = size / 2
    body = []
    if not F.spirals and not F.bands:
        return _svg(size, size, [f'<text x="20" y="{cy}" font-size="12">'
                                 'empty circle sheaf</text>'])
    base_r = 60
    step = 18
    idx = 0
    C = float(F.C)

    def point(radius, coord):
        ang = 2 * math.pi * (float(coord) % C) / C - math.pi / 2
        return (cx + radius * math.cos(ang), cy + radius * math.sin(ang))

    body.append(f'<circle cx="{cx}" cy="{cy}" r="{base_r - 14}" fill="none" '
                'stroke="#ccc" stroke-dasharray="2,3"/>')
    for band in F.bands:
        r = base_r + step * idx
        body.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" '
                    f'stroke="{_color(band.degree)}" stroke-width="3" '
                    'stroke-dasharray="6,4"/>')
        body.append(f'<text x="{cx + r + 4:.1f}" y="{cy:.1f}" font-size="10">'
                    f'band r={band.rank} deg {band.degree}</text>')
        idx += 1
    for b in F.spirals:
        r = base_r + step * idx
        color = _color(b.degree)
        length = b.iv.right - b.iv.left
        if length >= F.C:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" '
                        f'stroke="{color}" stroke-width="3"/>')
            body.append(f'<text x="{cx + r + 4:.1f}" y="{cy:.1f}" '
                        f'font-size="10">winding deg {b.degree}</text>')
        else:
            x0, y0 = point(r, b.iv.left)
            x1, y1 = point(r, b.iv.right)
            large = 1 if length > F.C / 2 else 0
            if length == 0:
                body.append(f'<circle cx="{x0:.1f}" cy="{y0:.1f}" r="4" '
                            f'fill="{color}"/>')
            else:
                body.append(f'<path d="M {x0:.1f} {y0:.1f} A {r} {r} 0 '
                            f'{large} 1 {x1:.1f} {y1:.1f}" fill="none" '
                            f'stroke="{color}" stroke-width="3"/>')
                for (px, py, kind) in ((x0, y0, b.iv.lkind), (x1, y1, b.iv.rkind)):
                    fill = color if kind is CLOSED else "white"
                    body.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" '
                                f'fill="{fill}" stroke="{color}"/>')
        idx += 1
    return _svg(size, size, body)


def emit_plot(obj, path) -> None:
    """Write a persistence-style SVG for a barcode or circle sheaf."""
    if isinstance(obj, GradedBarcode):
        text = barcode_svg(obj)
    elif isinstance(obj, CircleSheaf):
        text = circle_svg(obj)
    else:
        raise TypeError(f"cannot plot {type(obj).__name__}")
    with open(path, "w") as fh:
        fh.write(text)
