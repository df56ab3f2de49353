"""Line-oriented scenario documents.

A document names a check, a scalar backend, one conic, and the points and
lines the check consumes; optional ``expect`` entries pin report witnesses
to exact values.  The format is key-first so fixtures read well in diffs:

    check damn
    backend gauss
    conic symmetric 1 0 0 1 0 -1
    point a (-3 : 4 : 5)
    point r (0 : 1 : 1)
    expect ratio cr -1

Chord partners the check can reconstruct (the second endpoint through m)
may be omitted; points may also be given in the affine chart ``(x, y)`` or
as parameter values on the conic once a ``base`` point is declared.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ._linalg import cross, normalize
from .scalars import BACKENDS, GaussianRational, ScalarParseError, backend_name
from .projective import (CrossRatioValue, DegenerateInputError, ProjLine, ProjPoint,
                         ProjectiveError, join)
from .conics import (AffineConicSpec, Conic, ConicParametrization, DegenerateConicError,
                     conic_through_five, homogenize_affine_conic, second_intersection)
from .reflection import ReflectionFrame
from .reports import CheckReport, Verdict
from .checks import (lemma_jap_check, lemma_mono_check, lemma_nut_check, lemma_sack_check,
                     pascal_check, theorem_cutl_check, theorem_damn_check)
from .scenarios import affine_spec_from_conic, build_planar_scenario, build_scenario

__all__ = [
    "ScenarioParseError",
    "Expect",
    "ScenarioDocument",
    "parse_scenario",
    "serialize_scenario",
    "run_document",
    "butterfly_document",
    "planar_document",
    "frame_document",
    "hexagon_document",
]


class ScenarioParseError(ValueError):
    """A document problem, annotated with the offending line when there is one."""

    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno else message)


_NAME_RE = re.compile(r"[a-z][a-z0-9_']*")
_EXPECT_KINDS = ("point", "line", "ratio", "scalar")

# declaration shape per check: points and lines in canonical order, with the
# names the document may omit because the runner can derive them
_SHAPES: Dict[str, dict] = {
    "mono": {"points": ("y", "y'", "m"), "lines": ("k", "l"),
             "optional": ("y'", "l"), "on_conic": ("y", "y'")},
    "jap": {"points": ("y", "u"), "lines": ("k", "l2"), "optional": (), "on_conic": ()},
    "nut": {"points": ("y", "z"), "lines": ("k",), "optional": (), "on_conic": ()},
    "sack": {"points": ("u", "v", "m", "r", "s"), "lines": (),
             "optional": ("s",), "on_conic": ("u", "v", "r", "s")},
    "pascal": {"points": ("p1", "p2", "p3", "p4", "p5", "p6"), "lines": (),
               "optional": (), "on_conic": ("p1", "p2", "p3", "p4", "p5", "p6")},
    "damn": {"points": ("a", "b", "m", "r", "s", "f", "g"), "lines": (),
             "optional": ("s", "g"), "on_conic": ("a", "b", "r", "s", "f", "g")},
    "cutl": {"points": ("a", "b", "m", "r", "s", "u", "v"), "lines": (),
             "optional": ("s", "v"), "on_conic": ("a", "b", "r", "s", "u", "v")},
}


class Expect:
    """One pinned witness: the named report value must equal this exactly."""

    __slots__ = ("kind", "name", "value")

    def __init__(self, kind: str, name: str, value):
        if kind not in _EXPECT_KINDS:
            raise ScenarioParseError(f"unknown expect kind {kind!r}")
        self.kind = kind
        self.name = name
        self.value = value

    def __eq__(self, other):
        if not isinstance(other, Expect):
            return NotImplemented
        return (self.kind, self.name) == (other.kind, other.name) and self.value == other.value

    def __repr__(self):
        return f"Expect({self.kind!r}, {self.name!r}, {self.value})"


class ScenarioDocument:
    """A parsed scenario: everything a single check run needs."""

    __slots__ = ("check", "field", "conic", "base", "points", "lines", "expects")

    def __init__(self, check: str, field, conic: Conic,
                 points: Dict[str, ProjPoint], lines: Dict[str, ProjLine],
                 expects: Optional[List[Expect]] = None,
                 base: Optional[ProjPoint] = None):
        if check not in _SHAPES:
            raise ScenarioParseError(f"unknown check {check!r}")
        self.check = check
        self.field = field
        self.conic = conic
        self.base = base
        self.points = dict(points)
        self.lines = dict(lines)
        self.expects = list(expects or ())

    def __eq__(self, other):
        if not isinstance(other, ScenarioDocument):
            return NotImplemented
        return (self.check == other.check and self.field is other.field
                and self.conic == other.conic and self.base == other.base
                and self.points == other.points and self.lines == other.lines
                and self.expects == other.expects)


def _parse_point(text: str, field, lineno: int) -> ProjPoint:
    try:
        return ProjPoint.parse(text, field)
    except (ScalarParseError, ProjectiveError, ValueError) as exc:
        raise ScenarioParseError(str(exc), lineno) from exc


def _parse_line_coords(text: str, field, lineno: int) -> ProjLine:
    try:
        return ProjLine.parse(text, field)
    except (ScalarParseError, ProjectiveError, ValueError) as exc:
        raise ScenarioParseError(str(exc), lineno) from exc


def _parse_scalar(text: str, field, lineno: int):
    try:
        return field.parse(text)
    except (ScalarParseError, ValueError) as exc:
        raise ScenarioParseError(str(exc), lineno) from exc


_AFFINE_PAIR = re.compile(r"\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)")


def _parse_affine_point(text: str, field, lineno: int) -> ProjPoint:
    m = _AFFINE_PAIR.fullmatch(text.strip())
    if m is None:
        raise ScenarioParseError(f"bad affine point {text!r}; expected (x, y)", lineno)
    return ProjPoint.affine(_parse_scalar(m.group(1), field, lineno),
                            _parse_scalar(m.group(2), field, lineno), field)


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse a document; every diagnostic carries its line number."""
    check: Optional[str] = None
    field = None
    conic: Optional[Conic] = None
    base: Optional[ProjPoint] = None
    points: Dict[str, ProjPoint] = {}
    lines: Dict[str, ProjLine] = {}
    expects: List[Expect] = []
    decl_lines: Dict[str, int] = {}
    param_par: Optional[ConicParametrization] = None

    def want_field():
        nonlocal field
        if field is None:
            field = GaussianRational
        return field

    for lineno, raw in enumerate(text.splitlines(), 1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        key, _, rest = stmt.partition(" ")
        rest = rest.strip()

        if key == "check":
            if check is not None:
                raise ScenarioParseError("duplicate check declaration", lineno)
            if rest not in _SHAPES:
                raise ScenarioParseError(f"unknown check {rest!r}", lineno)
            check = rest

        elif key == "backend":
            if field is not None:
                raise ScenarioParseError(
                    "backend must be declared once, before any coordinates", lineno)
            if rest not in BACKENDS:
                raise ScenarioParseError(f"unknown backend {rest!r}", lineno)
            field = BACKENDS[rest]

        elif key == "conic":
            if conic is not None:
                raise ScenarioParseError("duplicate conic declaration", lineno)
            flavor, _, body = rest.partition(" ")
            f = want_field()
            try:
                if flavor == "symmetric":
                    entries = body.split()
                    if len(entries) != 6:
                        raise ScenarioParseError(
                            f"conic symmetric needs 6 entries, got {len(entries)}", lineno)
                    conic = Conic.from_upper_entries(
                        [_parse_scalar(e, f, lineno) for e in entries], f)
                elif flavor == "affine":
                    entries = body.split()
                    if len(entries) != 6:
                        raise ScenarioParseError(
                            f"conic affine needs 6 coefficients, got {len(entries)}", lineno)
                    coeffs = [_parse_scalar(e, f, lineno) for e in entries]
                    conic = homogenize_affine_conic(AffineConicSpec(*coeffs, f))
                elif flavor == "points":
                    triples = re.findall(r"\([^()]*\)", body)
                    if len(triples) != 5:
                        raise ScenarioParseError(
                            f"conic points needs 5 points, got {len(triples)}", lineno)
                    conic = conic_through_five([_parse_point(t, f, lineno) for t in triples])
                else:
                    raise ScenarioParseError(
                        f"unknown conic flavor {flavor!r}; use symmetric, affine, or points",
                        lineno)
            except (DegenerateConicError, ProjectiveError) as exc:
                raise ScenarioParseError(str(exc), lineno) from exc

        elif key == "base":
            if base is not None:
                raise ScenarioParseError("duplicate base declaration", lineno)
            if conic is None:
                raise ScenarioParseError("base needs the conic declared first", lineno)
            base = _parse_point(rest, want_field(), lineno)
            residual = conic.membership_residual(base)
            if not residual.is_zero():
                raise ScenarioParseError(
                    f"base point is not on the conic; residual {residual}", lineno)

        elif key in ("point", "line"):
            name, _, body = rest.partition(" ")
            body = body.strip()
            if not _NAME_RE.fullmatch(name):
                raise ScenarioParseError(f"bad {key} name {name!r}", lineno)
            if name in points or name in lines:
                raise ScenarioParseError(f"duplicate name {name!r}", lineno)
            f = want_field()
            if key == "line":
                lines[name] = _parse_line_coords(body, f, lineno)
            elif body.startswith("affine"):
                points[name] = _parse_affine_point(body[len("affine"):], f, lineno)
            elif body.startswith("param"):
                if conic is None or base is None:
                    raise ScenarioParseError(
                        "param points need conic and base declared first", lineno)
                if param_par is None:
                    param_par = ConicParametrization(conic, base)
                literals = body[len("param"):].split()
                if len(literals) == 1:
                    t = _parse_scalar(literals[0], f, lineno)
                elif len(literals) == 2:
                    t = (_parse_scalar(literals[0], f, lineno),
                         _parse_scalar(literals[1], f, lineno))
                else:
                    raise ScenarioParseError(
                        "param takes one value or a homogeneous pair", lineno)
                try:
                    points[name] = param_par.point(t)
                except ProjectiveError as exc:
                    raise ScenarioParseError(str(exc), lineno) from exc
            else:
                points[name] = _parse_point(body, f, lineno)
            decl_lines[name] = lineno

        elif key == "expect":
            kind, _, body = rest.partition(" ")
            name, _, value_text = body.strip().partition(" ")
            value_text = value_text.strip()
            if kind not in _EXPECT_KINDS:
                raise ScenarioParseError(f"unknown expect kind {kind!r}", lineno)
            if not _NAME_RE.fullmatch(name):
                raise ScenarioParseError(f"bad expect name {name!r}", lineno)
            f = want_field()
            if kind == "point":
                value = _parse_point(value_text, f, lineno)
            elif kind == "line":
                value = _parse_line_coords(value_text, f, lineno)
            elif kind == "ratio":
                if value_text == "inf":
                    value = CrossRatioValue.infinity(f)
                else:
                    value = CrossRatioValue(_parse_scalar(value_text, f, lineno), f.one(), f)
            else:
                value = _parse_scalar(value_text, f, lineno)
            expects.append(Expect(kind, name, value))

        else:
            raise ScenarioParseError(f"unknown key {key!r}", lineno)

    if check is None:
        raise ScenarioParseError("document declares no check")
    if conic is None:
        raise ScenarioParseError("document declares no conic")
    field = field if field is not None else GaussianRational

    shape = _SHAPES[check]
    for name in shape["points"]:
        if name not in points and name not in shape["optional"]:
            raise ScenarioParseError(f"check {check} needs point {name!r}")
    for name in shape["lines"]:
        if name not in lines and name not in shape["optional"]:
            raise ScenarioParseError(f"check {check} needs line {name!r}")
    for name in shape["on_conic"]:
        if name in points:
            residual = conic.membership_residual(points[name])
            if not residual.is_zero():
                raise ScenarioParseError(
                    f"point {name!r} is not on the conic; residual {residual}",
                    decl_lines.get(name))

    return ScenarioDocument(check, field, conic, points, lines, expects, base=base)


def _conic_entries(conic: Conic) -> List[str]:
    return [str(e) for e in normalize(conic.upper_entries())]


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Canonical text: fixed key order, canonical coordinates.

    parse(serialize(doc)) reproduces the document up to projective scale,
    so serialized fixtures diff cleanly.
    """
    shape = _SHAPES[doc.check]
    out = [f"check {doc.check}", f"backend {backend_name(doc.field)}"]
    out.append("conic symmetric " + " ".join(_conic_entries(doc.conic)))
    if doc.base is not None:
        out.append(f"base {doc.base}")
    ordered = [n for n in shape["points"] if n in doc.points]
    ordered += sorted(n for n in doc.points if n not in shape["points"])
    for name in ordered:
        out.append(f"point {name} {doc.points[name]}")
    ordered = [n for n in shape["lines"] if n in doc.lines]
    ordered += sorted(n for n in doc.lines if n not in shape["lines"])
    for name in ordered:
        out.append(f"line {name} {doc.lines[name]}")
    for e in doc.expects:
        out.append(f"expect {e.kind} {e.name} {e.value}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# document construction from kernel objects

def butterfly_document(scenario) -> ScenarioDocument:
    names = ("a", "b", "m", "r", "s", "f", "g")
    points = {n: w for n, w in zip(names, (scenario.a, scenario.b, scenario.m,
                                           scenario.r, scenario.s, scenario.f, scenario.g))}
    return ScenarioDocument("damn", scenario.conic.field, scenario.conic, points, {})


def planar_document(scenario) -> ScenarioDocument:
    names = ("a", "b", "m", "r", "s", "u", "v")
    points = {n: w for n, w in zip(names, (scenario.a, scenario.b, scenario.m,
                                           scenario.r, scenario.s, scenario.u, scenario.v))}
    return ScenarioDocument("cutl", scenario.conic.field, scenario.conic, points, {})


def frame_document(check: str, frame: ReflectionFrame,
                   points: Dict[str, ProjPoint], lines: Dict[str, ProjLine]) -> ScenarioDocument:
    """mono / jap / nut carry the axis; sack carries the chord pair instead."""
    points = dict(points)
    lines = dict(lines)
    if check == "sack":
        points.setdefault("u", frame.u)
        points.setdefault("v", frame.v)
    else:
        lines.setdefault("k", frame.axis)
    return ScenarioDocument(check, frame.conic.field, frame.conic, points, lines)


def hexagon_document(conic: Conic, hexagon) -> ScenarioDocument:
    points = {f"p{k + 1}": w for k, w in enumerate(hexagon)}
    return ScenarioDocument("pascal", conic.field, conic, points, {})


# ----------------------------------------------------------------------
# running a document

def _derived_partner(conic: Conic, end: ProjPoint, m: ProjPoint, label: str) -> ProjPoint:
    try:
        return second_intersection(conic, join(end, m), end)
    except (ProjectiveError, DegenerateInputError) as exc:
        raise ScenarioParseError(f"cannot derive {label}: {exc}") from exc


def _partner(doc: ScenarioDocument, name: str, end_name: str, through: str) -> ProjPoint:
    got = doc.points.get(name)
    if got is not None:
        return got
    return _derived_partner(doc.conic, doc.points[end_name], doc.points[through], name)


def _main_report(doc: ScenarioDocument) -> CheckReport:
    conic, pts, lns = doc.conic, doc.points, doc.lines
    if doc.check == "damn":
        s = _partner(doc, "s", "r", "m")
        g = _partner(doc, "g", "f", "m")
        scenario = build_scenario(conic, pts["a"], pts["b"], pts["m"], pts["r"], s, pts["f"], g)
        return theorem_damn_check(scenario)
    if doc.check == "cutl":
        s = _partner(doc, "s", "r", "m")
        v = _partner(doc, "v", "u", "m")
        spec = affine_spec_from_conic(conic)
        scenario = build_planar_scenario(spec, pts["a"], pts["b"], pts["m"], pts["r"], s,
                                         pts["u"], v)
        return theorem_cutl_check(scenario)
    if doc.check == "pascal":
        return pascal_check(conic, tuple(pts[f"p{k}"] for k in range(1, 7)))
    if doc.check == "sack":
        axis = join(pts["u"], pts["v"])
        frame = ReflectionFrame(conic, axis, pts["u"], pts["v"])
        s = _partner(doc, "s", "r", "m")
        return lemma_sack_check(frame, pts["m"], pts["r"], s)

    frame = ReflectionFrame(conic, lns["k"])
    if doc.check == "mono":
        l = lns.get("l")
        if l is None:
            l = join(frame.pole, pts["y"])
        y_prime = pts.get("y'")
        if y_prime is None:
            y_prime = second_intersection(conic, l, pts["y"])
        return lemma_mono_check(frame, l, pts["y"], y_prime, pts["m"])
    if doc.check == "jap":
        return lemma_jap_check(frame, pts["y"], pts["u"], lns["l2"])
    return lemma_nut_check(frame, pts["y"], pts["z"])


def _expect_residual(expect: Expect, actual):
    if expect.kind in ("point", "line"):
        c = cross(actual.coords, expect.value.coords)
        return next((e for e in c if not e.is_zero()), c[0])
    if expect.kind == "ratio":
        return actual.num * expect.value.den - expect.value.num * actual.den
    return actual - expect.value


_EXPECT_TYPES = {"point": ProjPoint, "line": ProjLine, "ratio": CrossRatioValue}


def run_document(doc: ScenarioDocument) -> List[CheckReport]:
    """The main check's report, plus one expect report when the document pins
    witnesses.  A pinned witness that disagrees makes the expect report
    VIOLATED with the exact residual."""
    reports = [_main_report(doc)]
    if not doc.expects:
        return reports

    witnesses = dict(reports[0].witnesses)
    pairs = []
    first_residual = None
    bad = 0
    for e in doc.expects:
        if e.name not in witnesses:
            raise ScenarioParseError(
                f"expect {e.name!r}: the {doc.check} report has no such witness")
        actual = witnesses[e.name]
        want_type = _EXPECT_TYPES.get(e.kind)
        if want_type is not None and not isinstance(actual, want_type):
            raise ScenarioParseError(
                f"expect {e.name!r}: witness is not a {e.kind}")
        if e.kind == "scalar" and isinstance(actual, (ProjPoint, ProjLine, CrossRatioValue)):
            raise ScenarioParseError(f"expect {e.name!r}: witness is not a scalar")
        pairs.append((f"{e.name} expected", e.value))
        pairs.append((f"{e.name} actual", actual))
        if actual != e.value:
            bad += 1
            if first_residual is None:
                first_residual = _expect_residual(e, actual)
    if bad:
        reports.append(CheckReport("expect", Verdict.VIOLATED, pairs,
                                   residual=first_residual,
                                   reason=f"{bad} pinned witness(es) disagree"))
    else:
        reports.append(CheckReport("expect", Verdict.HOLDS, pairs))
    return reports
