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

``CLAIMS`` at the end of the module is the one record per claim that the
parser, the runner, campaigns and figures read.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional

from ._linalg import cross, normalize
from .scalars import BACKENDS, GaussianRational, backend_name
from .projective import (CrossRatioValue, DegenerateInputError, ProjLine, ProjPoint,
                         ProjectiveError, join)
from .conics import (AffineConicSpec, Conic, ConicParametrization, DegenerateConicError,
                     conic_through_five, homogenize_affine_conic, second_intersection)
from .reflection import ReflectionFrame
from .reports import CheckReport, Verdict
from .checks import (lemma_jap_check, lemma_mono_check, lemma_nut_check, lemma_sack_check,
                     pascal_check, theorem_damn_check)
from .scenarios import (FLAVOURS, build_scenario, random_hexagon, random_jap_inputs,
                        random_mono_inputs, random_nut_inputs, random_sack_inputs,
                        random_scenario)

__all__ = [
    "ScenarioParseError",
    "Expect",
    "ScenarioDocument",
    "Claim",
    "CLAIMS",
    "CLAIM_ORDER",
    "parse_scenario",
    "serialize_scenario",
    "run_document",
    "claim_document",
]


class ScenarioParseError(ValueError):
    """A document problem, annotated with the offending line when there is one."""

    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno else message)


_NAME_RE = re.compile(r"[a-z][a-z0-9_']*")
_EXPECT_KINDS = ("point", "line", "ratio", "scalar")

class Expect(namedtuple("Expect", "kind name value")):
    """One pinned witness: the named report value must equal this exactly."""

    __slots__ = ()

    def __new__(cls, kind: str, name: str, value):
        if kind not in _EXPECT_KINDS:
            raise ScenarioParseError(f"unknown expect kind {kind!r}")
        return super().__new__(cls, kind, name, value)


class ScenarioDocument:
    """A parsed scenario: everything a single check run needs."""

    __slots__ = ("check", "field", "conic", "base", "points", "lines", "expects")

    def __init__(self, check: str, field, conic: Conic,
                 points: Dict[str, ProjPoint], lines: Dict[str, ProjLine],
                 expects: Optional[List[Expect]] = None,
                 base: Optional[ProjPoint] = None):
        if check not in CLAIMS:
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


def _parsed(parse, lineno: int, *args):
    """parse(*args), with a parse error raised as ScenarioParseError at `lineno`."""
    try:
        return parse(*args)
    except ValueError as exc:  # ScalarParseError and ProjectiveError included
        raise ScenarioParseError(str(exc), lineno) from exc


_AFFINE_PAIR = re.compile(r"\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)")


def _parse_affine_point(text: str, field, lineno: int) -> ProjPoint:
    m = _AFFINE_PAIR.fullmatch(text.strip())
    if m is None:
        raise ScenarioParseError(f"bad affine point {text!r}; expected (x, y)", lineno)
    return ProjPoint.affine(_parsed(field.parse, lineno, m.group(1)),
                            _parsed(field.parse, lineno, m.group(2)), field)


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
            if rest not in CLAIMS:
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
                        [_parsed(f.parse, lineno, e) for e in entries], f)
                elif flavor == "affine":
                    entries = body.split()
                    if len(entries) != 6:
                        raise ScenarioParseError(
                            f"conic affine needs 6 coefficients, got {len(entries)}", lineno)
                    coeffs = [_parsed(f.parse, lineno, e) for e in entries]
                    conic = homogenize_affine_conic(AffineConicSpec(*coeffs, f))
                elif flavor == "points":
                    triples = re.findall(r"\([^()]*\)", body)
                    if len(triples) != 5:
                        raise ScenarioParseError(
                            f"conic points needs 5 points, got {len(triples)}", lineno)
                    conic = conic_through_five(
                        [_parsed(ProjPoint.parse, lineno, t, f) for t in triples])
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
            base = _parsed(ProjPoint.parse, lineno, rest, want_field())
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
                lines[name] = _parsed(ProjLine.parse, lineno, body, f)
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
                    t = _parsed(f.parse, lineno, literals[0])
                elif len(literals) == 2:
                    t = (_parsed(f.parse, lineno, literals[0]),
                         _parsed(f.parse, lineno, literals[1]))
                else:
                    raise ScenarioParseError(
                        "param takes one value or a homogeneous pair", lineno)
                try:
                    points[name] = param_par.point(t)
                except ProjectiveError as exc:
                    raise ScenarioParseError(str(exc), lineno) from exc
            else:
                points[name] = _parsed(ProjPoint.parse, lineno, body, f)
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
                value = _parsed(ProjPoint.parse, lineno, value_text, f)
            elif kind == "line":
                value = _parsed(ProjLine.parse, lineno, value_text, f)
            elif kind == "ratio":
                if value_text == "inf":
                    value = CrossRatioValue.infinity(f)
                else:
                    value = CrossRatioValue(_parsed(f.parse, lineno, value_text), f.one(), f)
            else:
                value = _parsed(f.parse, lineno, value_text)
            expects.append(Expect(kind, name, value))

        else:
            raise ScenarioParseError(f"unknown key {key!r}", lineno)

    if check is None:
        raise ScenarioParseError("document declares no check")
    if conic is None:
        raise ScenarioParseError("document declares no conic")
    field = field if field is not None else GaussianRational

    claim = CLAIMS[check]
    for name in claim.points:
        if name not in points and name not in claim.optional:
            raise ScenarioParseError(f"check {check} needs point {name!r}")
    for name in claim.lines:
        if name not in lines and name not in claim.optional:
            raise ScenarioParseError(f"check {check} needs line {name!r}")
    for name in claim.on_conic:
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
    claim = CLAIMS[doc.check]
    out = [f"check {doc.check}", f"backend {backend_name(doc.field)}"]
    out.append("conic symmetric " + " ".join(_conic_entries(doc.conic)))
    if doc.base is not None:
        out.append(f"base {doc.base}")
    ordered = [n for n in claim.points if n in doc.points]
    ordered += sorted(n for n in doc.points if n not in claim.points)
    for name in ordered:
        out.append(f"point {name} {doc.points[name]}")
    ordered = [n for n in claim.lines if n in doc.lines]
    ordered += sorted(n for n in doc.lines if n not in claim.lines)
    for name in ordered:
        out.append(f"line {name} {doc.lines[name]}")
    for e in doc.expects:
        out.append(f"expect {e.kind} {e.name} {e.value}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# the claim registry


def claim_document(check: str, conic: Conic, named: dict) -> ScenarioDocument:
    """A document declaring the claim's points and lines, taken from `named`."""
    claim = CLAIMS[check]
    return ScenarioDocument(check, conic.field, conic, {n: named[n] for n in claim.points},
                            {n: named[n] for n in claim.lines})


# A cell returns (report, make_doc); the document is built only when a
# violated cell is replayed.

def _frame_cell(check: str, checker, names, drawn):
    """A lemma cell: `drawn` is a frame followed by the checker's other
    arguments, which `names` names.  The frame supplies the axis k, or for
    sack the chord ends u, v."""
    frame, *args = drawn
    named = {"k": frame.axis, "u": frame.u, "v": frame.v}
    named.update(zip(names, args))
    return checker(frame, *args), partial(claim_document, check, frame.conic, named)


def _hexagon_cell(drawn):
    conic, hexagon = drawn
    return pascal_check(conic, hexagon), partial(
        claim_document, "pascal", conic, dict(zip(_HEXAGON, hexagon)))


def _butterfly_cell(scenario):
    return theorem_damn_check(scenario), partial(
        claim_document, scenario.flavour.claim, scenario.conic, scenario.points)


def _partner(doc: ScenarioDocument, name: str, end_name: str, through: str) -> ProjPoint:
    """The declared point `name`, or the second end of the chord from
    `end_name` through `through`."""
    got = doc.points.get(name)
    if got is not None:
        return got
    end, m = doc.points[end_name], doc.points[through]
    try:
        return second_intersection(doc.conic, join(end, m), end)
    except (ProjectiveError, DegenerateInputError) as exc:
        raise ScenarioParseError(f"cannot derive {name}: {exc}") from exc


def _axis_frame(doc: ScenarioDocument) -> ReflectionFrame:
    return ReflectionFrame(doc.conic, doc.lines["k"])


def _chord_frame(doc: ScenarioDocument) -> ReflectionFrame:
    u, v = doc.points["u"], doc.points["v"]
    return ReflectionFrame(doc.conic, join(u, v), u, v)


def _run_mono(doc: ScenarioDocument) -> CheckReport:
    pts, lns = doc.points, doc.lines
    frame = _axis_frame(doc)
    l = lns.get("l")
    if l is None:
        l = join(frame.pole, pts["y"])
    y_prime = pts.get("y'")
    if y_prime is None:
        y_prime = second_intersection(doc.conic, l, pts["y"])
    return lemma_mono_check(frame, l, pts["y"], y_prime, pts["m"])


def _run_butterfly(doc: ScenarioDocument) -> CheckReport:
    a, b, m, r, s, c, d = CLAIMS[doc.check].points
    pts = doc.points
    return theorem_damn_check(build_scenario(
        doc.conic, pts[a], pts[b], pts[m], pts[r], _partner(doc, s, r, m),
        pts[c], _partner(doc, d, c, m), kind=doc.check))


class Claim(NamedTuple):
    """Everything the package knows about one claim.

    `points` and `lines` are a document's declarations in canonical order,
    `optional` those a document may omit because `run` derives them, and
    `on_conic` the points that must lie on the conic.  `edges` are the
    segments a figure draws, named by report witnesses.  A `real` claim
    draws real-plane configurations, so it needs the gauss backend.

    `cell(rng, field, height, budget, index)` draws and checks one campaign
    cell and returns (report, make_doc); `run(doc)` checks a document.  Both
    reach the generators and checkers through this module's globals at call
    time, never through a stored reference, so a wrapper that rebinds those
    names (a tracer, a test's monkeypatch) sees every call.
    """

    name: str
    points: tuple
    cell: Callable
    run: Callable
    lines: tuple = ()
    optional: tuple = ()
    on_conic: tuple = ()
    edges: tuple = ()
    real: bool = False


def _butterfly_claim(flavour) -> Claim:
    a, b, m, r, s, c, d = flavour.inputs
    return Claim(
        flavour.claim, flavour.inputs, optional=(s, d), on_conic=(a, b, r, s, c, d),
        edges=((a, b), (r, s), (c, d)) + flavour.crosswise, real=flavour.real,
        cell=lambda rng, field, height, budget, index: _butterfly_cell(
            random_scenario(rng, field, height, kind=flavour.claim, budget=budget)),
        run=_run_butterfly)


_HEXAGON = ("p1", "p2", "p3", "p4", "p5", "p6")

CLAIMS: Dict[str, Claim] = {c.name: c for c in (
    Claim("mono", ("y", "y'", "m"), lines=("k", "l"), optional=("y'", "l"),
          on_conic=("y", "y'"), edges=(("y", "y'"),),
          cell=lambda rng, field, height, budget, index: _frame_cell(
              "mono", lemma_mono_check, ("l", "y", "y'", "m"), random_mono_inputs(
                  rng, field, height, converse=bool(index % 2), budget=budget)),
          run=_run_mono),
    Claim("jap", ("y", "u"), lines=("k", "l2"),
          cell=lambda rng, field, height, budget, index: _frame_cell(
              "jap", lemma_jap_check, ("y", "u", "l2"),
              random_jap_inputs(rng, field, height, budget=budget)),
          run=lambda doc: lemma_jap_check(_axis_frame(doc), doc.points["y"], doc.points["u"],
                                          doc.lines["l2"])),
    Claim("nut", ("y", "z"), lines=("k",), edges=(("y", "z"),),
          cell=lambda rng, field, height, budget, index: _frame_cell(
              "nut", lemma_nut_check, ("y", "z"),
              random_nut_inputs(rng, field, height, budget=budget)),
          run=lambda doc: lemma_nut_check(_axis_frame(doc), doc.points["y"], doc.points["z"])),
    Claim("sack", ("u", "v", "m", "r", "s"), optional=("s",), on_conic=("u", "v", "r", "s"),
          edges=(("u", "v"), ("r", "s")),
          cell=lambda rng, field, height, budget, index: _frame_cell(
              "sack", lemma_sack_check, ("m", "r", "s"),
              random_sack_inputs(rng, field, height, budget=budget)),
          run=lambda doc: lemma_sack_check(_chord_frame(doc), doc.points["m"], doc.points["r"],
                                           _partner(doc, "s", "r", "m"))),
    Claim("pascal", _HEXAGON, on_conic=_HEXAGON,
          edges=tuple(zip(_HEXAGON, _HEXAGON[1:] + _HEXAGON[:1])) + (("x1", "x2"), ("x2", "x3")),
          cell=lambda rng, field, height, budget, index: _hexagon_cell(
              random_hexagon(rng, field, height, budget=budget)),
          run=lambda doc: pascal_check(doc.conic, tuple(doc.points[n] for n in _HEXAGON))),
    *(_butterfly_claim(f) for f in FLAVOURS.values()),
)}
CLAIM_ORDER = tuple(CLAIMS)


# ----------------------------------------------------------------------
# running a document

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
    reports = [CLAIMS[doc.check].run(doc)]
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
