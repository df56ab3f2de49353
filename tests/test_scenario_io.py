import re
import sys
from fractions import Fraction
from importlib import resources
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conic_butterfly import RetryBudget, fuzz, scenario_io
from conic_butterfly.conics import Conic, conic_through_five
from conic_butterfly.projective import CrossRatioValue, ProjectiveError, ProjLine, ProjPoint
from conic_butterfly.reports import CheckReport, Verdict, exit_status, format_value
from conic_butterfly.scalars import BACKENDS, GaussianRational, PrimeFieldElement, backend_name
from conic_butterfly.scenario_io import (
    _EXPECT_KINDS,
    _NAME_RE,
    CLAIMS,
    Expect,
    ScenarioDocument,
    ScenarioParseError,
    claim_document,
    parse_scenario,
    run_document,
    serialize_scenario,
)
from conic_butterfly.scenarios import random_scenario

from test_golden import DOCUMENTS, GOLDEN

G = GaussianRational

MINIMAL = """\
check nut
backend gauss
conic symmetric 0 1/2 1/2 0 -1 0
line k (1 : 0 : 0)
point y (1 : 1 : 1)
point z (1 : 2 : 3)
"""

_CONIC = "conic symmetric 0 1/2 1/2 0 -1 0"  # MINIMAL's conic line

# MINIMAL with a base point, (1 : 0 : 0) on xy + xz - 2yz, declared on line 4
BASED = MINIMAL.replace("-1 0\n", "-1 0\nbase (1 : 0 : 0)\n")

# a hexagon on the unit circle: the pascal report's det is its one scalar witness
PASCAL_CIRCLE = """\
check pascal
conic affine 1 1 0 0 0 -1
point p1 affine (1, 0)
point p2 affine (3/5, 4/5)
point p3 affine (0, 1)
point p4 affine (-1, 0)
point p5 affine (0, -1)
point p6 affine (4/5, -3/5)
"""


class TestParsing:
    def test_minimal_document(self):
        doc = parse_scenario(MINIMAL)
        assert doc.check == "nut"
        assert doc.field is G
        assert set(doc.points) == {"y", "z"}
        assert set(doc.lines) == {"k"}

    def test_comments_and_blank_lines_ignored(self):
        noisy = "# heading\n\n" + MINIMAL.replace(
            "point y (1 : 1 : 1)", "point y (1 : 1 : 1)  # a note")
        assert parse_scenario(noisy) == parse_scenario(MINIMAL)

    def test_fixture_documents(self, fixture_text):
        for name, check in (("lemma1", "mono"),
                            ("butterfly_circle", "damn"),
                            ("cutl_hyperbola", "cutl")):
            doc = parse_scenario(fixture_text(name))
            assert doc.check == check
            assert doc.expects

    def test_unknown_key(self):
        with pytest.raises(ScenarioParseError, match=r"^line 1: unknown key 'pointt'$"):
            parse_scenario("pointt y (1 : 0 : 0)\n" + MINIMAL)

    def test_unknown_check(self):
        with pytest.raises(ScenarioParseError, match=r"^line 1: unknown check 'lemma_one'$"):
            parse_scenario(MINIMAL.replace("check nut", "check lemma_one"))
        conic = parse_scenario(MINIMAL).conic
        with pytest.raises(ScenarioParseError, match=r"^unknown check 'lemma_one'$"):
            ScenarioDocument("lemma_one", conic, {}, {})

    def test_zero_point_rejected_with_line_number(self):
        bad = MINIMAL.replace("point y (1 : 1 : 1)", "point y (0 : 0 : 0)")
        with pytest.raises(ScenarioParseError, match=r"^line 5: \(0 : 0 : 0\) is not a projective object$"):
            parse_scenario(bad)

    def test_duplicate_name(self):
        bad = MINIMAL + "point y (1 : 2 : 2)\n"
        with pytest.raises(ScenarioParseError, match=r"^line 7: duplicate name 'y'$"):
            parse_scenario(bad)

    def test_backend_must_precede_coordinates(self):
        lines = MINIMAL.splitlines()
        reordered = "\n".join([lines[0]] + lines[2:4] + ["backend gauss"] + lines[4:])
        with pytest.raises(ScenarioParseError,
                           match=r"^line 4: backend must be declared once, before any coordinates$"):
            parse_scenario(reordered)

    def test_unknown_backend(self):
        with pytest.raises(ScenarioParseError, match=r"^line 2: unknown backend 'float'$"):
            parse_scenario(MINIMAL.replace("backend gauss", "backend float"))

    def test_missing_required_point(self):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("point z"))
        with pytest.raises(ScenarioParseError, match=r"^check nut needs point 'z'$"):
            parse_scenario(text)

    def test_missing_conic(self):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("conic"))
        with pytest.raises(ScenarioParseError, match=r"^document declares no conic$"):
            parse_scenario(text)

    def test_on_conic_membership_enforced(self):
        text = """\
check pascal
conic affine 1 1 0 0 0 -1
point p1 (0 : 1 : 1)
point p2 (0 : -1 : 1)
point p3 (1 : 0 : 1)
point p4 (-1 : 0 : 1)
point p5 (3 : 4 : 5)
point p6 (1 : 1 : 1)
"""
        # the residual of (1 : 1 : 1) on x^2 + y^2 - z^2 is 1
        with pytest.raises(ScenarioParseError,
                           match=r"^line 8: point 'p6' is not on the conic; residual 1$"):
            parse_scenario(text)

    @pytest.mark.parametrize("flavor, noun", [("symmetric", "entries"), ("affine", "coefficients")])
    @pytest.mark.parametrize("count", [5, 7])
    def test_six_value_conic_needs_six(self, flavor, noun, count):
        text = MINIMAL.replace(_CONIC, f"conic {flavor} " + " ".join(["1"] * count))
        with pytest.raises(ScenarioParseError,
                           match=rf"^line 3: conic {flavor} needs 6 {noun}, got {count}$"):
            parse_scenario(text)

    def test_affine_points(self):
        text = MINIMAL.replace("point y (1 : 1 : 1)", "point y affine (1, 1)")
        doc = parse_scenario(text)
        assert doc.points["y"] == ProjPoint((G(1), G(1), G(1)), G)

    def test_param_points_need_base(self):
        text = MINIMAL.replace("point y (1 : 1 : 1)", "point y param 3")
        with pytest.raises(ScenarioParseError,
                           match=r"^line 5: param points need conic and base declared first$"):
            parse_scenario(text)

    def test_param_points(self):
        text = """\
check pascal
conic affine 1 1 0 0 0 -1
base (0 : 1 : 1)
point p1 param 1
point p2 param 2
point p3 param 3
point p4 param 4
point p5 param 5
point p6 param 1 2
"""
        doc = parse_scenario(text)
        for w in doc.points.values():
            assert doc.conic.contains(w)
        assert len(set(doc.points.values())) == 6

    def test_base_must_lie_on_conic(self):
        text = "check pascal\nconic affine 1 1 0 0 0 -1\nbase (2 : 2 : 1)\n"
        with pytest.raises(ScenarioParseError,
                           match=r"^line 3: base point is not on the conic; residual 7$"):
            parse_scenario(text)

    def test_conic_from_five_points(self):
        text = """\
check nut
conic points (0 : 1 : 1) (0 : -1 : 1) (1 : 0 : 1) (-1 : 0 : 1) (3 : 4 : 5)
line k (1 : 0 : 2)
point y (1 : 1 : 1)
point z (1 : 2 : 2)
"""
        doc = parse_scenario(text)
        assert doc.conic.contains(ProjPoint((G(3), G(4), G(5)), G))

    def test_degenerate_conic_rejected(self):
        text = MINIMAL.replace(_CONIC,
                               "conic symmetric 1 0 0 0 0 0")
        with pytest.raises(ScenarioParseError, match=r"^line 3: degenerate conic \(zero determinant\)$"):
            parse_scenario(text)

    @pytest.mark.parametrize("text, message", [
        (MINIMAL.replace("point y (1 : 1 : 1)", "point y affine (1 1)"),
         r"^line 5: bad affine point ' \(1 1\)'; expected \(x, y\)$"),
        (MINIMAL.replace("point y (1 : 1 : 1)", "point Y (1 : 1 : 1)"), r"^line 5: bad point name 'Y'$"),
        (MINIMAL + "conic symmetric 0 1/2 1/2 0 -1 0\n",
         r"^line 7: duplicate conic declaration$"),
        (MINIMAL.replace(_CONIC,
                         "conic points (0 : 1 : 0) (0 : 0 : 1) (1 : 0 : 0) (1 : 1 : 1)"),
         r"^line 3: conic points needs 5 points, got 4$"),
        (MINIMAL.replace("conic symmetric", "conic quadric"),
         r"^line 3: unknown conic flavor 'quadric'; use symmetric, affine, or points$"),
        (BASED.replace("base (1 : 0 : 0)", "base (1 : 0 : 0)\nbase (0 : 1 : 0)"),
         r"^line 5: duplicate base declaration$"),
        ("check nut\nbase (1 : 0 : 0)\n" + MINIMAL.split("\n", 1)[1],
         r"^line 2: base needs the conic declared first$"),
        (BASED.replace("point y (1 : 1 : 1)", "point y param 1 2 3"),
         r"^line 6: param takes one value or a homogeneous pair$"),
        (BASED.replace("point y (1 : 1 : 1)", "point y param 0 0"),
         r"^line 6: \(0 : 0\) is not a parameter$"),
        (MINIMAL + "expect vector y (1 : 1 : 1)\n", r"^line 7: unknown expect kind 'vector'$"),
        (MINIMAL + "expect point Y (1 : 1 : 1)\n", r"^line 7: bad expect name 'Y'$"),
        (MINIMAL.replace("line k (1 : 0 : 0)\n", ""), r"^check nut needs line 'k'$"),
        (MINIMAL.replace("check nut\n", ""), r"^document declares no check$"),
        (MINIMAL + "check nut\n", r"^line 7: duplicate check declaration$"),
        (MINIMAL.replace("backend gauss", "backend gauss\nbackend gauss"),
         r"^line 3: backend must be declared once, before any coordinates$"),
        (MINIMAL.replace(_CONIC, "conic symmetric 0 1/2 1/2 0 -1 x"), r"^line 3: bad scalar literal 'x'$"),
        (MINIMAL.replace(_CONIC, "conic affine 1 1 0 0 0 x"), r"^line 3: bad scalar literal 'x'$"),
        (MINIMAL.replace("point y (1 : 1 : 1)", "point y affine (1, x)"),
         r"^line 5: bad scalar literal 'x'$"),
        (BASED.replace("point y (1 : 1 : 1)", "point y param x"), r"^line 6: bad scalar literal 'x'$"),
        (BASED.replace("point y (1 : 1 : 1)", "point y param 1 x"), r"^line 6: bad scalar literal 'x'$"),
        (BASED.replace("base (1 : 0 : 0)", "base (1 : 0 : x)"), r"^line 4: bad scalar literal ' x'$"),
        (MINIMAL.replace(_CONIC, "conic points (0 : 1 : 1) (0 : -1 : 1) (1 : 0 : 1) (-1 : 0 : 1) (3 : 4 : x)"),
         r"^line 3: bad scalar literal ' x'$"),
        (MINIMAL + "expect ratio cr x\n", r"^line 7: bad scalar literal 'x'$"),
        (MINIMAL + "expect scalar det x\n", r"^line 7: bad scalar literal 'x'$"),
        (MINIMAL.replace(_CONIC, "conic affine 1i 1 0 0 0 -1"),
         r"^line 3: affine conic coefficients must be real$"),
        (MINIMAL.replace(_CONIC, "conic affine 0 0 0 1 1 1"),
         r"^line 3: affine conic must be genuinely quadratic$"),
        (MINIMAL.replace(_CONIC, "conic points (0 : 1 : 1) (0 : 1 : 1) (1 : 0 : 1) (-1 : 0 : 1) (3 : 4 : 5)"),
         r"^line 3: coincident points cannot pin down a conic$"),
        (MINIMAL.replace(_CONIC, "conic points (0 : 0 : 1) (1 : 0 : 1) (2 : 0 : 1) (3 : 0 : 1) (0 : 1 : 1)"),
         r"^line 3: five-point system has kernel dimension 2, need 1$"),
    ], ids=["bad affine point", "bad point name", "duplicate conic", "conic points count", "unknown conic flavor",
            "duplicate base", "base before conic", "param arity", "param (0 : 0)",
            "unknown expect kind", "bad expect name", "needs line", "no check", "duplicate check",
            "backend twice", "conic symmetric literal", "conic affine literal", "affine point literal", "param literal",
            "param pair literal", "base literal", "conic points literal", "expect ratio literal",
            "expect scalar literal", "affine conic not real", "affine conic not quadratic",
            "conic points equal", "conic points collinear"])
    def test_parse_error_message(self, text, message):
        with pytest.raises(ScenarioParseError, match=message):
            parse_scenario(text)

    def test_prime_backend(self):
        text = MINIMAL.replace("backend gauss", "backend prime").replace(
            "conic symmetric 0 1/2 1/2 0 -1 0", "conic symmetric 0 1 1 0 -2 0")
        doc = parse_scenario(text)
        assert doc.field is PrimeFieldElement
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ScenarioParseError, match=f"^line 4: bad residue literal ' {digits}'$"):
            parse_scenario(text.replace("line k (1 : 0 : 0)", f"line k (1 : 0 : {digits})"))


# ----------------------------------------------------------------------
# robustness: mutated documents raise only ScenarioParseError

# every document that parses: the fixtures, and the golden documents verify accepts
_SCN_PATHS = tuple(sorted([*(path for path in (resources.files("conic_butterfly") / "fixtures").iterdir()
                             if path.name.endswith(".scn")),
                           *(GOLDEN / name for name in DOCUMENTS)], key=str))
_SCN_TEXTS = tuple(path.read_text(encoding="utf-8") for path in _SCN_PATHS)
_TOKENS = tuple(sorted({t for text in _SCN_TEXTS for t in text.split()})) + (
    "", "0", "-0", "1/0", "0/7", "inf", "i", "1+i", "-1/2-3/4i", "(0 : 0 : 0)", "(1 : 2)",
    "(1 : 2 : 3 : 4)", "(1, 2)", "((1 : 2 : 3))", "#", ":", "(", ")", "9" * 5000)
_CHARS = "()-+/:,# \t0123456789iabcmp"
# the errors about a declaration that is missing, which no line can carry
_MISSING = re.compile(r"document declares no (check|conic)|check \w+ needs (point|line) '\w+'")


@st.composite
def mutated_documents(draw):
    """A fixture or golden document after one to four edits: a line deleted,
    duplicated, swapped or inserted (from the documents' own tokens and a few
    edge cases), a token replaced, or a few characters overwritten."""
    lines = draw(st.sampled_from(_SCN_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "insert", "token", "chars")))
        n = len(lines)
        if kind == "insert" or not lines:
            words = draw(st.lists(st.sampled_from(_TOKENS), max_size=6))
            lines.insert(draw(st.integers(0, n)), " ".join(words))
            continue
        i = draw(st.integers(0, n - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, n)), lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, n - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(words)
        else:
            at = draw(st.integers(0, len(lines[i])))
            cut = draw(st.integers(0, 3))
            lines[i] = lines[i][:at] + draw(st.text(_CHARS, max_size=3)) + lines[i][at + cut:]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_documents_raise_only_parse_errors(text):
    """Any other exception fails the property; a parse error names a line of
    the document unless a declaration is missing altogether."""
    try:
        parse_scenario(text)
    except ScenarioParseError as exc:
        if exc.lineno is None:
            assert _MISSING.fullmatch(str(exc)), str(exc)
        else:
            assert 1 <= exc.lineno <= len(text.splitlines())


class TestRoundTrip:
    def test_fixtures_round_trip(self, fixture_text):
        for name in ("lemma1", "butterfly_circle", "cutl_hyperbola"):
            doc = parse_scenario(fixture_text(name))
            assert parse_scenario(serialize_scenario(doc)) == doc

    def test_prime_document_round_trip(self):
        sc = random_scenario(Random(7), PrimeFieldElement, height_bound=5)
        doc = claim_document("damn", sc.conic, sc.points)
        again = parse_scenario(serialize_scenario(doc))
        assert again == doc
        assert again.field is PrimeFieldElement


# ----------------------------------------------------------------------
# round-trips of the hand-written forms


def _literal(draw, field, real=False) -> str:
    if field is G:
        a, b, d, e = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                                    st.integers(1, 6), st.integers(1, 6)))
        return str(G(Fraction(a, d), 0 if real else Fraction(b, e)))
    return str(draw(st.integers(-(2**62), 2**62)))


def _triple(draw, field, real=False) -> str:
    return "(" + " : ".join(_literal(draw, field, real) for _ in range(3)) + ")"


@st.composite
def hand_written_documents(draw):
    """A nut document whose conic is given by five points, by its symmetric
    entries or by its affine coefficients; a base; extra points in the
    affine, param (one value or a pair) and triple forms; and an expect of
    every kind, a ratio at infinity included."""
    field = draw(st.sampled_from((G, PrimeFieldElement)))
    flavor = draw(st.sampled_from(("points", "symmetric", "affine")))
    five = [_triple(draw, field, real=flavor == "affine") for _ in range(5)]
    try:
        conic = conic_through_five([ProjPoint.parse(t, field) for t in five])
    except ProjectiveError:  # a zero triple, coincident points or a degenerate conic
        assume(False)
    m11, m12, m13, m22, m23, m33 = conic.canonical()
    two = field(2)
    body = {"points": " ".join(five),
            "symmetric": " ".join(map(str, conic.canonical())),
            "affine": " ".join(map(str, (m11, m22, two * m12, two * m13, two * m23, m33)))}[flavor]
    lines = ["check nut", f"backend {backend_name(field)}", f"conic {flavor} {body}",
             f"base {five[0]}", f"line k {_triple(draw, field)}",
             f"point y affine ({_literal(draw, field)}, {_literal(draw, field)})",
             f"point z {_triple(draw, field)}"]
    for i in range(draw(st.integers(1, 3))):
        values = " ".join(_literal(draw, field) for _ in range(draw(st.integers(1, 2))))
        lines.append(f"point q{i} param {values}")
    ratio = draw(st.sampled_from(("inf", _literal(draw, field))))
    lines += [f"expect point e {_triple(draw, field)}", f"expect line f {_triple(draw, field)}",
              f"expect ratio cr {ratio}", f"expect scalar s {_literal(draw, field)}"]
    try:
        return parse_scenario("\n".join(lines) + "\n")
    except ScenarioParseError:  # a zero triple or a (0 : 0) parameter
        assume(False)


@settings(max_examples=150, deadline=None)
@given(hand_written_documents())
def test_hand_written_forms_round_trip(doc):
    text = serialize_scenario(doc)
    again = parse_scenario(text)
    assert again == doc
    assert serialize_scenario(again) == text


# ----------------------------------------------------------------------
# a conic symmetric line is read raw
#
# Its reference is the scalar route it replaced: each entry parsed by the
# backend's `parse`, then `Conic.from_upper_entries`.  Both must build the
# same raw form or raise the same error at the conic's line.

_PAST_LIMIT = "1" * (sys.get_int_max_str_digits() + 1)
_BAD_ENTRIES = {G: ("x", "1/0", "0/0", "2//3", "i", "1+i", "1.5", _PAST_LIMIT, f"1/{_PAST_LIMIT}"),
                PrimeFieldElement: ("x", "1/2", "i", "1.5", "++1", _PAST_LIMIT)}


@st.composite
def _spelled_int(draw, n: int) -> str:
    """n with an optional plus sign (or a minus on 0) and leading zero."""
    sign = "-" if n < 0 else draw(st.sampled_from(("", "+", "-" if n == 0 else "")))
    return sign + "0" * draw(st.integers(0, 1)) + str(abs(n))


@st.composite
def _conic_entries(draw, field) -> str:
    """One entry in any spelling, of a small value so that forms are often
    degenerate, or now and then a literal that does not parse."""
    if draw(st.integers(0, 14)) == 0:
        return draw(st.sampled_from(_BAD_ENTRIES[field]))
    if field is PrimeFieldElement:
        n = draw(st.one_of(st.integers(-3, 3), st.integers(-(2**62), 2**62)))
        return draw(_spelled_int(n))

    def part(signed: bool) -> str:
        text = draw(_spelled_int(draw(st.integers(-3 if signed else 0, 3))))
        if draw(st.booleans()):
            text += "/" + draw(_spelled_int(draw(st.integers(1, 6))))
        return text

    shape = draw(st.sampled_from(("real", "imaginary", "complex")))
    if shape == "real":
        return part(True)
    if shape == "imaginary":
        return part(True) + "i"
    return part(True) + draw(st.sampled_from("+-")) + part(False) + "i"


def _conic_line_outcomes(field, entries) -> tuple:
    """(the document's conic or error, the scalar route's) for the entries."""
    text = MINIMAL.replace("backend gauss", f"backend {backend_name(field)}").replace(
        "conic symmetric 0 1/2 1/2 0 -1 0", "conic symmetric " + " ".join(entries))
    try:
        got = ("ok", parse_scenario(text).conic.raw)
    except ScenarioParseError as exc:
        got = ("raised", str(exc), exc.lineno)
    try:
        want = ("ok", Conic.from_upper_entries([field.parse(e) for e in entries], field).raw)
    except ValueError as exc:  # ScalarParseError and DegenerateConicError included
        want = ("raised", f"line 3: {exc}", 3)
    return got, want


@pytest.mark.parametrize("field", (G, PrimeFieldElement), ids=("gauss", "prime"))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_conic_symmetric_line_is_the_scalar_route(field, data):
    entries = data.draw(st.lists(_conic_entries(field), min_size=6, max_size=6))
    got, want = _conic_line_outcomes(field, entries)
    assert got == want


@pytest.mark.parametrize("field,body,error", [
    (G, "-1/2 0/3 +0 -2/4 -0 1/2", None), (G, "1/2 1/3+1/4i 0 2i -1/6 5", None),
    (G, "x 1/0 0 1 0 1", "line 3: bad scalar literal 'x'"),
    (G, "1 0 0 1/0 0 -1", "line 3: zero denominator in '1/0'"),
    (G, f"1 0 0 1 0 {_PAST_LIMIT}", f"line 3: bad rational literal '{_PAST_LIMIT}'"),
    (G, "1 1 1 1 1 1", "line 3: degenerate conic (zero determinant)"),
    (PrimeFieldElement, "2 00 +0 02 0 -2", None),
    (PrimeFieldElement, "1 0 0 1 0 1/2", "line 3: bad residue literal '1/2'"),
    (PrimeFieldElement, f"1 0 0 1 0 {_PAST_LIMIT}", f"line 3: bad residue literal '{_PAST_LIMIT}'"),
    (PrimeFieldElement, "1 1 1 1 1 1", "line 3: degenerate conic (zero determinant)"),
], ids=["gauss scaled", "gauss complex", "gauss first bad literal", "gauss zero denominator",
        "gauss past the digit limit", "gauss degenerate", "prime scaled", "prime bad literal",
        "prime past the digit limit", "prime degenerate"])
def test_conic_symmetric_line_examples(field, body, error):
    """Each case the property draws, at least once: a form, a bad literal
    (the first of two raises), a zero denominator, a literal past the digit
    limit and a degenerate form."""
    got, want = _conic_line_outcomes(field, body.split())
    assert got == want
    assert got[0] == "ok" if error is None else got[1] == error


class TestRunning:
    def test_fixtures_all_hold(self, fixture_text):
        for name in ("lemma1", "butterfly_circle", "cutl_hyperbola"):
            reports = run_document(parse_scenario(fixture_text(name)))
            assert [r.verdict for r in reports] == [Verdict.HOLDS, Verdict.HOLDS]
            assert exit_status(reports) == 0

    def test_derived_partners_match_explicit(self, fixture_text):
        doc = parse_scenario(fixture_text("butterfly_circle"))
        explicit = run_document(doc)[0]
        assert explicit.witness("s") == ProjPoint((G(0), G(-1), G(1)), G)

    def test_expect_mismatch_is_violated(self, fixture_text):
        text = fixture_text("lemma1").replace(
            "expect point p (2 : 1 : 1)", "expect point p (3 : 1 : 1)")
        reports = run_document(parse_scenario(text))
        assert reports[0].verdict is Verdict.HOLDS
        assert reports[1].verdict is Verdict.VIOLATED
        assert reports[1].residual is not None
        assert not reports[1].residual.is_zero()
        assert exit_status(reports) == 1

    def test_expect_unknown_witness(self):
        text = MINIMAL + "expect point nope (1 : 0 : 0)\n"
        with pytest.raises(ScenarioParseError, match="no such witness"):
            run_document(parse_scenario(text))

    def test_expect_wrong_type(self):
        text = MINIMAL + "expect scalar y 4\n"
        with pytest.raises(ScenarioParseError, match="not a scalar"):
            run_document(parse_scenario(text))

    @pytest.mark.parametrize("kind", _EXPECT_KINDS)
    @pytest.mark.parametrize("witness, witness_kind",
                             [("p", "point"), ("axis", "line"), ("cr", "ratio"), ("det", "scalar")])
    def test_expect_kind_must_match_witness(self, fixture_text, witness, witness_kind, kind):
        """Each kind against a witness of each kind: only the witness's own kind runs."""
        doc = PASCAL_CIRCLE if witness == "det" else fixture_text("butterfly_circle")
        value = {"point": "(1 : 0 : 0)", "line": "(1 : 0 : 0)", "ratio": "-1", "scalar": "0"}[kind]
        text = doc + f"expect {kind} {witness} {value}\n"
        if kind == witness_kind:
            assert run_document(parse_scenario(text))[0].holds()
        else:
            with pytest.raises(ScenarioParseError,
                               match=rf"^expect '{witness}': witness is not a {kind}$"):
                run_document(parse_scenario(text))

    def test_expect_scalar_mismatch_residual(self):
        # the hexagon's det is 0, so a pin of 5 disagrees by 0 - 5
        reports = run_document(parse_scenario(PASCAL_CIRCLE + "expect scalar det 5\n"))
        assert reports[0].holds()
        assert reports[1].verdict is Verdict.VIOLATED
        assert reports[1].residual == G(-5)
        assert reports[1].to_text().splitlines()[-2] == "residual -5"

    def test_library_pin_of_unknown_kind_refused(self, fixture_text):
        doc = parse_scenario(fixture_text("butterfly_circle"))
        doc.expects.append(Expect("bogus", "cr", CrossRatioValue(-G.one(), G.one(), G)))
        with pytest.raises(ScenarioParseError, match=r"^expect 'cr': witness is not a bogus$"):
            run_document(doc)

    def test_expect_ratio_forms(self):
        assert parse_scenario(MINIMAL + "expect ratio cr -1\n").expects[0].value \
            == CrossRatioValue(-G.one(), G.one(), G)
        assert parse_scenario(MINIMAL + "expect ratio cr inf\n").expects[0].value \
            == CrossRatioValue.infinity(G)

    def test_degenerate_run_exits_2(self):
        text = """\
check damn
conic affine 1 1 0 0 0 -1
point a affine (-3/5, 4/5)
point b affine (3/5, 4/5)
point m affine (0, 4/5)
point r affine (0, 1)
point f affine (0, 1)
"""
        reports = run_document(parse_scenario(text))
        assert reports[0].verdict is Verdict.DEGENERATE
        assert exit_status(reports) == 2

    def test_underivable_partner(self):
        # m coincides with r, so the chord through both is not a line
        text = """\
check sack
conic affine 1 1 0 0 0 -1
point u affine (1, 0)
point v affine (-1, 0)
point m affine (0, 1)
point r affine (0, 1)
"""
        with pytest.raises(ScenarioParseError, match="cannot derive s"):
            run_document(parse_scenario(text))


def test_expect_equality_semantics():
    a = Expect("ratio", "cr", CrossRatioValue(-G.one(), G.one(), G))
    b = Expect("ratio", "cr", CrossRatioValue(G(2), -G(2), G))
    assert a == b
    assert a != Expect("ratio", "cr", CrossRatioValue.infinity(G))


def test_document_equality():
    doc = parse_scenario(MINIMAL)
    assert doc == parse_scenario(MINIMAL)
    assert doc != parse_scenario(MINIMAL.replace("(1 : 2 : 3)", "(1 : 2 : 5)"))


def _replay_cells():
    for claim in CLAIMS.values():
        for backend in BACKENDS:
            if backend == "gauss" or not claim.real:
                for index in range(6):
                    yield claim.name, backend, index


@pytest.mark.parametrize("claim,backend,index", list(_replay_cells()))
def test_campaign_cells_replay(claim, backend, index):
    """Every campaign cell's document round-trips through text, and running
    it reproduces the cell's report byte for byte."""
    report, make_doc = fuzz._RUNNERS[claim](Random(f"5:{index}:{claim}"), BACKENDS[backend], 8,
                                            RetryBudget(), index)
    doc = make_doc()
    assert parse_scenario(serialize_scenario(doc)) == doc
    assert run_document(doc)[0].to_text() == report.to_text()


# ----------------------------------------------------------------------
# a coordinate text is read once per document
#
# parse_scenario parses each (point or line, coordinate text) once per call,
# so a pin that echoes a declaration is the declared object.  The reference
# is the same document with every `expect point|line` body respaced, which
# no declaration repeats: both must parse to equal documents and print the
# same reports.  Each document is also checked with its echoed pins rotated
# to the next declaration's text, so a cache keyed on anything but the text
# (the pin's name, say) gives a different document.

# a declaration or pin may end in a comment, which the parser drops
_DECLARATION = re.compile(r"(point|line) (\S+) (\([^)]*\))(?:[ \t]*#.*)?")
_PIN = re.compile(r"^(expect (point|line) \S+ )(\([^)\n]*\))([ \t]*#.*)?$", re.M)


def _edit_pins(text: str, edit) -> str:
    return _PIN.sub(lambda m: m.group(1) + edit(m.group(2), m.group(3)) + (m.group(4) or ""), text)


def _respaced(kind: str, body: str) -> str:
    return "( " + "  :  ".join(part.strip() for part in body[1:-1].split(":")) + " )"


def _declarations(text: str) -> dict:
    """(kind, coordinate text) -> name, for each point and line declared by a triple."""
    found = {}
    for m in map(_DECLARATION.fullmatch, text.splitlines()):
        if m:
            found.setdefault((m.group(1), m.group(3)), m.group(2))
    return found


def _rotated(text: str) -> str:
    """Every pin that echoes a declaration pins the next declaration's text instead."""
    declared = list(_declarations(text))
    following = {key: next(k[1] for k in declared[i + 1:] + declared[:i + 1] if k[0] == key[0])
                 for i, key in enumerate(declared)}
    return _edit_pins(text, lambda kind, body: following.get((kind, body), body))


def _reports(doc) -> list:
    return [r.to_text() for r in run_document(doc)]


def _check_echoes(text: str):
    rotated = _rotated(text)
    for variant in (text, rotated):
        doc = parse_scenario(variant)
        spaced = parse_scenario(_edit_pins(variant, _respaced))
        assert spaced == doc
        assert _reports(spaced) == _reports(doc)
        assert not any(e.value is d for e in spaced.expects
                       for d in (*spaced.points.values(), *spaced.lines.values()))
        names = _declarations(variant)
        declared = {**doc.points, **doc.lines}
        pins = [m.group(2, 3) for m in _PIN.finditer(variant)]
        triple_expects = [e for e in doc.expects if e.kind in ("point", "line")]
        assert len(pins) == len(triple_expects)
        for pin, e in zip(pins, triple_expects):
            if pin in names:
                assert e.value is declared[names[pin]]
    if rotated != text:  # a rotated pin pins another value, so its report differs
        assert _reports(parse_scenario(rotated)) != _reports(parse_scenario(text))


def _pinned_cell(claim: str, backend: str, index: int):
    """(report, document text) of a height-10 campaign cell, with every
    nameable witness pinned."""
    report, make_doc = fuzz._RUNNERS[claim](Random(f"3:{index}:{claim}"), BACKENDS[backend], 10,
                                            RetryBudget(), index)
    doc = make_doc()
    for name, obj in report.witnesses:
        kind, _ = format_value(obj)
        if _NAME_RE.fullmatch(name) and kind in _EXPECT_KINDS:
            doc.expects.append(Expect(kind, name, obj))
    return report, serialize_scenario(doc)


@pytest.mark.parametrize("claim,backend,index", [c for c in _replay_cells() if c[2] < 3])
def test_pinned_cell_echoes_parse_once(claim, backend, index):
    _check_echoes(_pinned_cell(claim, backend, index)[1])


def _holds_document(claim: str, backend: str) -> str:
    """The first pinned cell whose report HOLDS."""
    return next(text for report, text in (_pinned_cell(claim, backend, i) for i in range(6))
                if report.holds())


@pytest.mark.parametrize("claim,backend", [("damn", "gauss"), ("damn", "prime"),
                                           ("cutl", "gauss"), ("jap", "gauss"), ("jap", "prime")])
def test_holds_lends_the_equal_witness_its_twin_text(claim, backend):
    """On a HOLDS report the witness the verdict makes equal to a pinned one
    borrows its kept text, and every text is the one printed afresh."""
    reports = run_document(parse_scenario(_holds_document(claim, backend)))
    assert all(r.holds() for r in reports)
    witnesses = dict(reports[0].witnesses)
    (name, twin), = CLAIMS[claim].equal
    assert witnesses[name] is not witnesses[twin]
    assert witnesses[name]._text == witnesses[twin]._text
    texts = [r.to_text() for r in reports]
    for _, obj in (w for r in reports for w in r.witnesses):
        if hasattr(obj, "_text"):
            del obj._text
    assert [r.to_text() for r in reports] == texts


def test_a_report_that_does_not_hold_lends_nothing(monkeypatch):
    """A damn checker patched to report VIOLATED with reflect(i) = i: the
    pins still lend their texts, but reflect(i) prints its own."""
    real = scenario_io.theorem_damn_check

    def violated(scenario):
        report = real(scenario)
        i = report.witness("i")
        wrong = ProjPoint(i.raw, i.kernels)  # equal to i, with no kept text
        witnesses = [(n, wrong if n == "reflect(i)" else obj) for n, obj in report.witnesses]
        return CheckReport("damn", Verdict.VIOLATED, witnesses, residual=i.field.one())

    text = _holds_document("damn", "gauss")
    monkeypatch.setattr(scenario_io, "theorem_damn_check", violated)
    reports = run_document(parse_scenario(text))
    assert reports[0].verdict is Verdict.VIOLATED and reports[1].holds()
    witnesses = dict(reports[0].witnesses)
    assert hasattr(witnesses["j"], "_text") and not hasattr(witnesses["reflect(i)"], "_text")
    assert f"witness reflect(i) point {witnesses['i']}\n" in reports[0].to_text()


# two golden documents with a trailing comment on each declaration and pin
_COMMENTED = tuple(
    (f"{path.stem}_commented", re.sub(r"^((?:expect )?(?:point|line) \S+ \(.*\))$", r"\1  # pinned",
                                      text, flags=re.M))
    for path, text in zip(_SCN_PATHS, _SCN_TEXTS)
    if path.stem in ("pin_damn_i", "replay_noncanonical_prime"))


@pytest.mark.parametrize("text", _SCN_TEXTS + tuple(text for _, text in _COMMENTED),
                         ids=[path.stem for path in _SCN_PATHS] + [name for name, _ in _COMMENTED])
def test_document_echoes_parse_once(text):
    """The fixtures and every golden document, and two of them with comments."""
    _check_echoes(text)


class TestParseScope:
    """The text-to-object map lives for one call and is keyed by kind and text."""

    @pytest.mark.parametrize("bad", ["(1 : 0)", "(0 : 0 : 0)", "(1 : x : 1)"])
    def test_malformed_text_raises_at_its_first_line(self, bad):
        text = MINIMAL.replace("line k (1 : 0 : 0)", f"line k {bad}") + (
            "expect ratio cr -1\nexpect scalar t 2\n" f"expect line k {bad}\n")
        assert text.splitlines()[3] == f"line k {bad}"
        assert text.splitlines()[8] == f"expect line k {bad}"
        with pytest.raises(ScenarioParseError, match="^line 4: "):
            parse_scenario(text)

    def test_same_text_as_line_and_point(self):
        doc = parse_scenario(MINIMAL + "point q (1 : 0 : 0)\n"
                             "expect point q (1 : 0 : 0)\nexpect line k (1 : 0 : 0)\n")
        k, q = doc.lines["k"], doc.points["q"]
        assert type(k) is ProjLine and type(q) is ProjPoint
        assert doc.expects[0].value is q and doc.expects[1].value is k

    def test_nothing_is_kept_across_calls(self, fixture_text):
        text = fixture_text("lemma1") + "expect point y (1 : 1 : 1)\n"
        first, second = parse_scenario(text), parse_scenario(text)
        assert first == second
        pairs = [(first.points[n], second.points[n]) for n in first.points]
        pairs += [(first.lines[n], second.lines[n]) for n in first.lines]
        pairs += [(a.value, b.value) for a, b in zip(first.expects, second.expects)]
        assert all(a == b and a is not b for a, b in pairs)
