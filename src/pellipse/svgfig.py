"""Minimal SVG 1.1 rendering of billiard trajectories.

Produces a deterministic 600 x 600 standalone figure: the boundary
ellipse, the four common light-like tangents ``x +- y = +- sqrt(a + b)``
(gray), the caustic conic (dashed), the trajectory polyline and its
vertices.  All coordinates are emitted with three decimals; the world
extent adapts to the trajectory so every vertex stays inside the canvas.
"""

from __future__ import annotations

import math

from .dynamics import Trajectory
from .geometry import ALL_CONICS, BoundaryEllipse, ConicClass, classify_conic

__all__ = ["render_trajectory_svg"]

_F = "%.3f"

#: Width and height of the canvas in pixels.
_SIZE = 600


def _fmt(x: float) -> str:
    s = _F % x
    return "0.000" if s == "-0.000" else s


class _Frame:
    """World-to-pixel transform for the centered square canvas."""

    def __init__(self, half_extent: float):
        self.scale = (_SIZE / 2) / half_extent
        self.center = _SIZE / 2

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return self.center + self.scale * x, self.center - self.scale * y


def _polyline(points: list[tuple[str, str]], style: str) -> str:
    """A polyline through pixel points already formatted by :func:`_fmt`."""
    pts = " ".join(f"{px},{py}" for px, py in points)
    return f'<polyline points="{pts}" {style}/>'


def _formatted(points) -> list[tuple[str, str]]:
    return [(_fmt(px), _fmt(py)) for px, py in points]


def _caustic_elements(E: BoundaryEllipse, gamma, frame: _Frame, half: float) -> list[str]:
    style = 'fill="none" stroke="#1f6fc4" stroke-width="1.2" stroke-dasharray="6 4"'
    if gamma is ALL_CONICS:
        return []
    g = float(gamma)
    if math.isinf(g):
        return []
    a, b = float(E.a), float(E.b)
    conic = classify_conic(g, E)
    cx, cy = frame.to_px(0.0, 0.0)
    if conic is ConicClass.EllipseOfFamily:
        rx = math.sqrt(a - g) * frame.scale
        ry = math.sqrt(b + g) * frame.scale
        return [
            f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" rx="{_fmt(rx)}" ry="{_fmt(ry)}" {style}/>'
        ]
    if conic not in (ConicClass.HyperbolaXMajor, ConicClass.HyperbolaYMajor):
        return []
    # x**2/(a-g) + y**2/(b+g) = 1 with semi-axes sqrt|a-g| and sqrt|b+g|: two
    # branches opening left/right (XMajor) or up/down (YMajor), one per sign
    x_major = conic is ConicClass.HyperbolaXMajor
    ax, ay = math.sqrt(abs(a - g)), math.sqrt(abs(b + g))
    umax = math.asinh(half / min(ax, ay) + 1.0)
    out = []
    for sign in (1.0, -1.0):
        pts = []
        for i in range(81):
            u = -umax + 2 * umax * i / 80
            ch, sh = sign * math.cosh(u), math.sinh(u)
            pts.append(frame.to_px(ax * ch, ay * sh) if x_major else frame.to_px(ax * sh, ay * ch))
        out.append(_polyline(_formatted(pts), style))
    return out


def render_trajectory_svg(T: Trajectory) -> str:
    """Render the trajectory with its ellipse and caustic as an SVG document."""
    E = T.ellipse
    a, b = float(E.a), float(E.b)
    extent = max(math.sqrt(a), math.sqrt(b), math.sqrt(a + b) / math.sqrt(2))
    for x, y in T.vertex_xy:
        extent = max(extent, abs(x), abs(y))
    half = extent * 1.12
    frame = _Frame(half)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    # common light-like tangents x +- y = +- sqrt(a+b)
    c = math.sqrt(a + b)
    tangent_style = 'stroke="#9a9a9a" stroke-width="0.8"'
    for sgn_c in (c, -c):
        for slope in (1.0, -1.0):
            # y = slope * x - slope * sgn_c  <=>  x - slope*y = sgn_c ... sample ends
            x0, x1 = -half, half
            y0 = slope * (x0 - sgn_c)
            y1 = slope * (x1 - sgn_c)
            (px0, py0), (px1, py1) = frame.to_px(x0, y0), frame.to_px(x1, y1)
            parts.append(
                f'<line x1="{_fmt(px0)}" y1="{_fmt(py0)}" x2="{_fmt(px1)}" '
                f'y2="{_fmt(py1)}" {tangent_style}/>'
            )
    cx, cy = frame.to_px(0.0, 0.0)
    rx, ry = math.sqrt(a) * frame.scale, math.sqrt(b) * frame.scale
    parts.append(
        f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" rx="{_fmt(rx)}" ry="{_fmt(ry)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>'
    )
    parts.extend(_caustic_elements(E, T.caustic_gamma, frame, half))
    # each vertex is formatted once, for the polyline and its marker
    traj_pts = _formatted(frame.to_px(x, y) for x, y in T.vertex_xy)
    parts.append(
        _polyline(traj_pts, 'fill="none" stroke="#c42f2f" stroke-width="1.3"')
    )
    for px, py in traj_pts:
        parts.append(f'<circle cx="{px}" cy="{py}" r="2.5" fill="#c42f2f"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
