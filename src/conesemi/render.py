"""Deterministic SVG scatter plots of 2D semigroups.

Members are dots, gaps are crosses, Frobenius-set gaps get a ring; optional
layers add pseudo-Frobenius diamonds, generator squares and weight-level
lines. Identical input produces identical bytes: all coordinates are exact
and formatted through one fixed-width routine, and nothing date- or
environment-dependent is embedded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidInput, UnsupportedDimension
from .geom import charge
from .semigroup import CSemigroup

_SCALE = 24
_PAD = 30

_STYLE = (
    ".cone-region{fill:#eef3fa;stroke:none}"
    ".cone-edge{stroke:#4a6da7;stroke-width:2}"
    ".level-line{stroke:#c9c9c9;stroke-width:1;stroke-dasharray:3 3}"
    ".member{fill:#1f3d7a}"
    ".gap-cross{stroke:#b03030;stroke-width:2;fill:none}"
    ".frobenius-ring{stroke:#b03030;stroke-width:2;fill:none}"
    ".pf-diamond{stroke:#c07f00;stroke-width:2;fill:none}"
    ".generator-mark{stroke:#2e7d32;stroke-width:2;fill:none}"
)


class RenderSpec(NamedTuple):
    """Viewport bounds (lattice units, origin-anchored) and the optional layers."""

    viewport: tuple[int, int] | None = None
    margin: int = 3
    show_pf: bool = False
    show_generators: bool = False
    show_levels: bool = False


def _fmt(q) -> str:
    if isinstance(q, int):
        return str(q)
    if q.denominator == 1:
        return str(q.numerator)
    scaled = round(q * 100)
    return f"{scaled // 100}.{scaled % 100:02d}"


def plot(s: CSemigroup, spec: RenderSpec | None = None) -> str:
    """Render the semigroup as an SVG document string."""
    if s.cone.p != 2:
        raise UnsupportedDimension("plotting is available for 2D semigroups only")
    spec = spec or RenderSpec()
    if spec.viewport is not None:
        ex, ey = spec.viewport
        if ex < 1 or ey < 1:
            raise InvalidInput("viewport bounds must be positive")
    else:
        extent = s.max_gap_weight + spec.margin
        ex = ey = max(extent, 1)
    charge((ex + 1) * (ey + 1), "the plot viewport")

    def px(x, y) -> tuple:
        return (_PAD + x * _SCALE, _PAD + (ey - y) * _SCALE)

    width = 2 * _PAD + ex * _SCALE
    height = 2 * _PAD + ey * _SCALE
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
    ]

    cone = s.cone
    corners = _region_corners(cone, ex, ey)
    pts = " ".join(f"{_fmt(cx)},{_fmt(cy)}" for cx, cy in (px(x, y) for x, y in corners))
    out.append(f'<polygon class="cone-region" points="{pts}"/>')

    if spec.show_levels:
        for t in range(ex + ey + 1):
            (x1, y1), (x2, y2) = _level_segment(t, ex, ey)
            a, b = px(x1, y1), px(x2, y2)
            out.append(
                f'<line class="level-line" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
            )

    for ray in cone.rays:
        end = _ray_exit(ray, ex, ey)
        a, b = px(0, 0), px(*end)
        out.append(
            f'<line class="cone-edge" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
            f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
        )

    in_view = [
        (x, y)
        for x in range(ex + 1)
        for y in range(ey + 1)
        if cone._contains((x, y))
    ]
    gap_set = s.gap_set
    for pt in in_view:
        if pt not in gap_set:
            cx, cy = px(*pt)
            out.append(f'<circle class="member" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4"/>')
    for pt in s.gaps:
        if pt[0] <= ex and pt[1] <= ey:
            cx, cy = px(*pt)
            out.append(
                f'<path class="gap-cross" d="M {_fmt(cx - 5)} {_fmt(cy - 5)} '
                f'L {_fmt(cx + 5)} {_fmt(cy + 5)} M {_fmt(cx - 5)} {_fmt(cy + 5)} '
                f'L {_fmt(cx + 5)} {_fmt(cy - 5)}"/>'
            )
    for pt in s.frobenius_set():
        if pt[0] <= ex and pt[1] <= ey:
            cx, cy = px(*pt)
            out.append(f'<circle class="frobenius-ring" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="9"/>')
    if spec.show_pf and s.gaps:
        for pt in s.pseudo_frobenius():
            if pt[0] <= ex and pt[1] <= ey:
                cx, cy = px(*pt)
                out.append(
                    f'<path class="pf-diamond" d="M {_fmt(cx)} {_fmt(cy - 8)} '
                    f'L {_fmt(cx + 8)} {_fmt(cy)} L {_fmt(cx)} {_fmt(cy + 8)} '
                    f'L {_fmt(cx - 8)} {_fmt(cy)} Z"/>'
                )
    if spec.show_generators:
        for pt in s.minimal_generators:
            if pt[0] <= ex and pt[1] <= ey:
                cx, cy = px(*pt)
                out.append(
                    f'<rect class="generator-mark" x="{_fmt(cx - 7)}" y="{_fmt(cy - 7)}" '
                    f'width="14" height="14"/>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _ray_exit(ray, ex: int, ey: int) -> tuple[Fraction, Fraction]:
    """Where the ray leaves the viewport box."""
    options = []
    if ray[0] > 0:
        options.append(Fraction(ex, ray[0]))
    if ray[1] > 0:
        options.append(Fraction(ey, ray[1]))
    t = min(options)
    return (t * ray[0], t * ray[1])


def _region_corners(cone, ex: int, ey: int) -> list[tuple[Fraction, Fraction]]:
    r1, r2 = cone.rays
    exit1 = _ray_exit(r1, ex, ey)
    exit2 = _ray_exit(r2, ex, ey)
    corners = [(Fraction(0), Fraction(0)), exit1]
    # insert the box corner when the rays leave through different edges
    if exit1[0] == ex and exit2[1] == ey and exit1 != (ex, ey) and exit2 != (ex, ey):
        corners.append((Fraction(ex), Fraction(ey)))
    corners.append(exit2)
    return corners


def _level_segment(t: int, ex: int, ey: int):
    x1 = max(0, t - ey)
    x2 = min(t, ex)
    return (x1, t - x1), (x2, t - x2)
