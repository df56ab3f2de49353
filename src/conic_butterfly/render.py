"""SVG figures for real scenarios, drawn in the affine chart z = 1.

The kernel stays exact: the document is re-run, every labeled incidence is
re-asserted on exact coordinates, and only then are values flattened to
floats for drawing.  The conic itself is a sampled polyline; 256 samples
of the rational point map, split into branches at the exact parameters
where the curve crosses the line at infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple
from xml.etree import ElementTree as ET

from .scalars import GaussianRational
from .projective import ProjLine, ProjPoint, ProjectiveError, join
from .conics import Conic, ConicParametrization
from .reports import CheckReport
from .scenario_io import _NAME_RE, CLAIMS, ScenarioDocument, run_document

__all__ = ["render_svg"]

_SAMPLES = 256
_VIEW = 640.0

# homogeneous tuples whose largest entry passes 2**_MAX_EXP are scaled down by
# one common power of two before conversion; the drawing code squares them
_MAX_EXP = 500


def _real(value) -> Fraction:
    if not value.is_real():
        raise ProjectiveError(f"{value} has an imaginary part; render needs a real scenario")
    return value.re


def _floats(values) -> List[float]:
    """Homogeneous real coordinates as floats, all scaled by one power of two.

    The scale brings the largest entry down to about 2**_MAX_EXP when it is
    larger, and changes no ratio."""
    parts = [_real(v) for v in values]
    exp = max((x.numerator.bit_length() - x.denominator.bit_length() for x in parts if x),
              default=0)
    shift = exp - _MAX_EXP
    if shift > 0:
        parts = [x / (1 << shift) for x in parts]
    return [float(x) for x in parts]


def _affine(p: ProjPoint) -> Optional[Tuple[float, float]]:
    """Chart coordinates, divided exactly before conversion; OverflowError
    when one of them is outside float range."""
    x, y, z = (_real(c) for c in p.coords)
    if not z:
        return None
    return (float(x / z), float(y / z))


def _direction(p: ProjPoint) -> Tuple[float, float]:
    x, y = _floats(p.coords[:2])
    n = math.hypot(x, y)
    return (x / n, y / n)


def _collect_labels(doc: ScenarioDocument, report: CheckReport):
    """Labeled exact points and lines: report witnesses first, then any
    document extras the report did not echo."""
    points: Dict[str, ProjPoint] = {}
    lines: Dict[str, ProjLine] = {}
    for name, obj in report.witnesses:
        if not _NAME_RE.fullmatch(name):
            continue  # derived confirmations like reflect(i) duplicate a label
        if isinstance(obj, ProjPoint):
            points.setdefault(name, obj)
        elif isinstance(obj, ProjLine):
            lines.setdefault(name, obj)
    for name, obj in doc.points.items():
        points.setdefault(name, obj)
    for name, obj in doc.lines.items():
        lines.setdefault(name, obj)
    return points, lines


def _assert_incidences(doc: ScenarioDocument, points: Dict[str, ProjPoint]) -> None:
    """Exact re-checks of everything the figure claims by drawing it.

    The claim's conic points need none: `parse_scenario` rejects an
    off-conic one at its line, and for a document built in code the run
    `render_svg` makes first raises from the checker or the builder."""
    for n1, n2 in CLAIMS[doc.check].edges:
        if n1 in points and n2 in points and points[n1] == points[n2]:
            raise ProjectiveError(f"edge {n1}{n2} collapsed to a point")


def _sample_base(doc: ScenarioDocument, points: Dict[str, ProjPoint]) -> ProjPoint:
    if doc.base is not None:
        return doc.base
    for name in CLAIMS[doc.check].on_conic:  # on the conic: see _assert_incidences
        p = points.get(name)
        if p is not None:
            return p
    raise ProjectiveError(
        "no labeled point lies on the conic; declare a base point to render this document")


def _conic_branches(conic: Conic, base: ProjPoint) -> List[List[Tuple[float, float]]]:
    par = ConicParametrization(conic, base)
    flat = _floats(sum(par.point_coefficients(), ()))
    a2, a1, a0 = flat[0:3], flat[3:6], flat[6:9]

    # parameters where the sweep crosses the line at infinity: z(t) = 0
    za, zb, zc = a2[2], a1[2], a0[2]
    cuts: List[float] = []
    if abs(za) > 1e-15 * max(1.0, abs(zb), abs(zc)):
        disc = zb * zb - 4.0 * za * zc
        if disc >= 0.0:
            root = math.sqrt(disc)
            cuts = sorted(((-zb - root) / (2.0 * za), (-zb + root) / (2.0 * za)))
    elif abs(zb) > 1e-15 * max(1.0, abs(zc)):
        cuts = [-zc / zb]

    def eval_at(t: float) -> Optional[Tuple[float, float]]:
        x = a2[0] * t * t + a1[0] * t + a0[0]
        y = a2[1] * t * t + a1[1] * t + a0[1]
        z = za * t * t + zb * t + zc
        if z == 0.0:
            return None
        return (x / z, y / z)

    params = [math.tan(-0.5 * math.pi + math.pi * (k + 0.5) / _SAMPLES)
              for k in range(_SAMPLES)]
    branches: List[List[Tuple[float, float]]] = [[]]
    prev_t = None
    for t in params:
        if prev_t is not None and any(prev_t < c <= t for c in cuts):
            branches.append([])
        pt = eval_at(t)
        if pt is not None:
            branches[-1].append(pt)
        prev_t = t

    base_ideal = base.coords[2].is_zero()
    if not cuts and not base_ideal and len(branches) == 1 and branches[0]:
        branches[0].append(branches[0][0])  # closed oval through the base point
    return [b for b in branches if len(b) >= 2]


def _bbox(points: List[Tuple[float, float]]) -> Tuple[float, float, float, float]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny, 1e-9)
    pad = 0.35 * span + 0.1
    cx, cy = (minx + maxx) / 2.0, (miny + maxy) / 2.0
    half = span / 2.0 + pad
    return (cx - half, cy - half, cx + half, cy + half)


def _clip_line(l: ProjLine, box) -> Optional[Tuple[float, float, float, float]]:
    """The visible segment of a projective line inside the box, if any."""
    a, b, c = _floats(l.coords)
    minx, miny, maxx, maxy = box
    hits = []
    if b != 0.0:
        for x in (minx, maxx):
            y = -(a * x + c) / b
            if miny - 1e-9 <= y <= maxy + 1e-9:
                hits.append((x, y))
    if a != 0.0:
        for y in (miny, maxy):
            x = -(b * y + c) / a
            if minx - 1e-9 <= x <= maxx + 1e-9:
                hits.append((x, y))
    best = None
    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            d = math.hypot(hits[i][0] - hits[j][0], hits[i][1] - hits[j][1])
            if best is None or d > best[0]:
                best = (d, hits[i], hits[j])
    if best is None or best[0] < 1e-9:
        return None
    (_, (x1, y1), (x2, y2)) = best
    return (x1, y1, x2, y2)


def _border_anchor(direction: Tuple[float, float], box) -> Tuple[float, float]:
    """Where a ray from the box center along `direction` exits the box."""
    minx, miny, maxx, maxy = box
    cx, cy = (minx + maxx) / 2.0, (miny + maxy) / 2.0
    dx, dy = direction
    scale = float("inf")
    if dx > 0:
        scale = min(scale, (maxx - cx) / dx)
    elif dx < 0:
        scale = min(scale, (minx - cx) / dx)
    if dy > 0:
        scale = min(scale, (maxy - cy) / dy)
    elif dy < 0:
        scale = min(scale, (miny - cy) / dy)
    scale *= 0.97
    return (cx + dx * scale, cy + dy * scale)


def render_svg(doc: ScenarioDocument, out_path=None) -> str:
    """Run the document, re-assert its geometry exactly, and draw it.

    Returns the SVG text; writes it to `out_path` when given.  Rejects
    scenarios with complex coordinates.
    """
    if doc.field is not GaussianRational:
        raise ProjectiveError("render needs the gauss backend: prime residues have no drawing")
    if not doc.conic.is_real():
        raise ProjectiveError("the conic is not real; render needs a real scenario")

    reports = run_document(doc)
    report = reports[0]
    points, lines = _collect_labels(doc, report)
    _assert_incidences(doc, points)

    placed: Dict[str, Tuple[float, float]] = {}
    ideal: Dict[str, Tuple[float, float]] = {}
    for name, p in points.items():
        try:
            at = _affine(p)
        except OverflowError:
            raise ProjectiveError(f"point {name} is outside float range; render cannot draw it") from None
        if at is None:
            ideal[name] = _direction(p)
        else:
            placed[name] = at
    if not placed:
        raise ProjectiveError("every labeled point is ideal; nothing to anchor the figure")

    box = _bbox(list(placed.values()))
    base = _sample_base(doc, points)
    branches = _conic_branches(doc.conic, base)

    minx, miny, maxx, maxy = box
    span = maxx - minx

    def sx(x: float) -> float:
        return (x - minx) / span * _VIEW

    def sy(y: float) -> float:
        return (maxy - y) / span * _VIEW  # svg y grows downward

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(int(_VIEW)), height=str(int(_VIEW)),
                     viewBox=f"0 0 {_VIEW:g} {_VIEW:g}")
    ET.SubElement(svg, "rect", x="0", y="0", width=f"{_VIEW:g}", height=f"{_VIEW:g}",
                  fill="white")

    for branch in branches:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in branch)
        ET.SubElement(svg, "polyline", points=pts, fill="none",
                      stroke="#1f4e79", attrib={"stroke-width": "2.0"})

    drawn_lines = dict(lines)
    for n1, n2 in CLAIMS[doc.check].edges:
        if n1 in points and n2 in points:
            drawn_lines.setdefault(f"{n1}{n2}", join(points[n1], points[n2]))
    for name, l in drawn_lines.items():
        seg = _clip_line(l, box)
        if seg is None:
            continue
        x1, y1, x2, y2 = seg
        named = name in lines
        ET.SubElement(svg, "line", x1=f"{sx(x1):.2f}", y1=f"{sy(y1):.2f}",
                      x2=f"{sx(x2):.2f}", y2=f"{sy(y2):.2f}",
                      stroke="#8a8a8a" if not named else "#b05030",
                      attrib={"stroke-width": "1.2"})
        if named:
            lx, ly = x1 * 0.9 + x2 * 0.1, y1 * 0.9 + y2 * 0.1
            label = ET.SubElement(svg, "text", x=f"{sx(lx) + 4:.2f}", y=f"{sy(ly) - 4:.2f}",
                                  fill="#b05030", attrib={"font-size": "15",
                                                          "font-style": "italic",
                                                          "font-family": "serif"})
            label.text = name

    for name, (x, y) in sorted(placed.items()):
        ET.SubElement(svg, "circle", cx=f"{sx(x):.2f}", cy=f"{sy(y):.2f}", r="4",
                      fill="#222222")
        label = ET.SubElement(svg, "text", x=f"{sx(x) + 6:.2f}", y=f"{sy(y) - 6:.2f}",
                              fill="#222222", attrib={"font-size": "16",
                                                      "font-style": "italic",
                                                      "font-family": "serif"})
        label.text = name

    for name, direction in sorted(ideal.items()):
        x, y = _border_anchor(direction, box)
        ET.SubElement(svg, "circle", cx=f"{sx(x):.2f}", cy=f"{sy(y):.2f}", r="4",
                      fill="none", stroke="#222222", attrib={"stroke-width": "1.5"})
        label = ET.SubElement(svg, "text", x=f"{sx(x) - 10:.2f}", y=f"{sy(y) - 8:.2f}",
                              fill="#222222", attrib={"font-size": "15",
                                                      "font-style": "italic",
                                                      "font-family": "serif"})
        label.text = f"{name} (ideal)"

    text = ET.tostring(svg, encoding="unicode")
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
