"""SVG rendering of trajectories, caustics and common tangents."""

import math
import random
import re
import xml.etree.ElementTree as ET

import pytest

from pellipse import BoundaryEllipse, MVec2, periodic_caustics, simulate
from pellipse.dynamics import start_on_caustic
from pellipse.svgfig import render_trajectory_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(a, b, gamma, steps, seed=0):
    E = BoundaryEllipse(a, b)
    P0, d0 = start_on_caustic(E, gamma, rng=random.Random(seed))
    T = simulate(P0, d0, steps, E)
    return T, render_trajectory_svg(T)


def test_document_is_valid_xml_600_square():
    _, svg = render(3, 2, 2.3322714928995234, 6)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("width") == "600" and root.get("height") == "600"
    assert root.get("viewBox") == "0 0 600 600"


def test_layers_present():
    T, svg = render(3, 2, 2.3322714928995234, 6)
    root = ET.fromstring(svg)
    lines = root.findall(f"{SVG_NS}line")
    assert len(lines) == 4  # the four common light-like tangents
    ellipses = root.findall(f"{SVG_NS}ellipse")
    assert len(ellipses) == 2  # boundary + dashed elliptic caustic
    dashed = [e for e in ellipses if e.get("stroke-dasharray")]
    assert len(dashed) == 1
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 1  # the trajectory
    circles = root.findall(f"{SVG_NS}circle")
    assert len(circles) == len(T.vertices)


def test_vertex_markers_match_frame_to_half_pixel():
    T, svg = render(3, 2, 2.3322714928995234, 6)
    root = ET.fromstring(svg)
    # recover the world-to-pixel map from the boundary ellipse element
    boundary = [
        e
        for e in root.findall(f"{SVG_NS}ellipse")
        if e.get("stroke") == "black"
    ][0]
    cx, cy = float(boundary.get("cx")), float(boundary.get("cy"))
    scale = float(boundary.get("rx")) / math.sqrt(float(T.ellipse.a))
    scale_y = float(boundary.get("ry")) / math.sqrt(float(T.ellipse.b))
    assert scale == pytest.approx(scale_y, rel=1e-3)  # isotropic frame
    circles = root.findall(f"{SVG_NS}circle")
    worst = 0.0
    for P, c in zip(T.vertices, circles):
        ex = cx + scale * float(P.x)
        ey = cy - scale * float(P.y)
        dev = math.hypot(ex - float(c.get("cx")), ey - float(c.get("cy")))
        worst = max(worst, dev)
    assert worst <= 0.5


def test_hyperbola_caustic_draws_two_branches():
    E = BoundaryEllipse(5, 3)
    gamma = min(r.gamma for r in periodic_caustics(E, 6))  # < -b: x-major
    T, svg = render(5, 3, gamma, 6)
    root = ET.fromstring(svg)
    dashed_polylines = [
        p for p in root.findall(f"{SVG_NS}polyline") if p.get("stroke-dasharray")
    ]
    assert len(dashed_polylines) == 2
    assert not [e for e in root.findall(f"{SVG_NS}ellipse") if e.get("stroke-dasharray")]


def test_lightlike_trajectory_skips_caustic_layer():
    E = BoundaryEllipse(1, 1)
    T = simulate(MVec2(1.0, 0.0), MVec2(-1.0, -1.0), 4, E)
    svg = render_trajectory_svg(T)
    root = ET.fromstring(svg)
    assert len(root.findall(f"{SVG_NS}ellipse")) == 1  # boundary only
    assert len(root.findall(f"{SVG_NS}polyline")) == 1
    assert len(root.findall(f"{SVG_NS}circle")) == 5


def test_no_nan_or_inf_coordinates():
    for a, b, gamma in ((3, 2, 2.3322714928995234), (5, 3, -3.2264236200130557)):
        _, svg = render(a, b, gamma, 8)
        assert not re.search(r"nan|inf", svg, re.IGNORECASE)
        for num in re.findall(r'[-+]?\d+\.\d+', svg):
            assert math.isfinite(float(num))
