import re
from fractions import Fraction
from importlib import resources
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conic_butterfly import RetryBudget, fuzz
from conic_butterfly.projective import CrossRatioValue, ProjPoint
from conic_butterfly.reports import Verdict, exit_status
from conic_butterfly.scalars import BACKENDS, GaussianRational, PrimeFieldElement
from conic_butterfly.scenario_io import (
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

G = GaussianRational

MINIMAL = """\
check nut
backend gauss
conic symmetric 0 1/2 1/2 0 -1 0
line k (1 : 0 : 0)
point y (1 : 1 : 1)
point z (1 : 2 : 3)
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
        with pytest.raises(ScenarioParseError, match="line 1.*unknown key"):
            parse_scenario("pointt y (1 : 0 : 0)\n" + MINIMAL)

    def test_unknown_check(self):
        with pytest.raises(ScenarioParseError, match="unknown check"):
            parse_scenario(MINIMAL.replace("check nut", "check lemma_one"))

    def test_zero_point_rejected_with_line_number(self):
        bad = MINIMAL.replace("point y (1 : 1 : 1)", "point y (0 : 0 : 0)")
        with pytest.raises(ScenarioParseError, match="line 5"):
            parse_scenario(bad)

    def test_duplicate_name(self):
        bad = MINIMAL + "point y (1 : 2 : 2)\n"
        with pytest.raises(ScenarioParseError, match="duplicate name"):
            parse_scenario(bad)

    def test_backend_must_precede_coordinates(self):
        lines = MINIMAL.splitlines()
        reordered = "\n".join([lines[0]] + lines[2:4] + ["backend gauss"] + lines[4:])
        with pytest.raises(ScenarioParseError, match="before any coordinates"):
            parse_scenario(reordered)

    def test_unknown_backend(self):
        with pytest.raises(ScenarioParseError, match="unknown backend"):
            parse_scenario(MINIMAL.replace("backend gauss", "backend float"))

    def test_missing_required_point(self):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("point z"))
        with pytest.raises(ScenarioParseError, match="needs point 'z'"):
            parse_scenario(text)

    def test_missing_conic(self):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("conic"))
        with pytest.raises(ScenarioParseError, match="declares no conic"):
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
        with pytest.raises(ScenarioParseError, match="line 8.*not on the conic"):
            parse_scenario(text)

    def test_affine_points(self):
        text = MINIMAL.replace("point y (1 : 1 : 1)", "point y affine (1, 1)")
        doc = parse_scenario(text)
        assert doc.points["y"] == ProjPoint((G(1), G(1), G(1)), G)

    def test_param_points_need_base(self):
        text = MINIMAL.replace("point y (1 : 1 : 1)", "point y param 3")
        with pytest.raises(ScenarioParseError, match="conic and base"):
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
        with pytest.raises(ScenarioParseError, match="base point is not on the conic"):
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
        text = MINIMAL.replace("conic symmetric 0 1/2 1/2 0 -1 0",
                               "conic symmetric 1 0 0 0 0 0")
        with pytest.raises(ScenarioParseError, match="line 3"):
            parse_scenario(text)

    def test_prime_backend(self):
        text = MINIMAL.replace("backend gauss", "backend prime").replace(
            "conic symmetric 0 1/2 1/2 0 -1 0", "conic symmetric 0 1 1 0 -2 0")
        doc = parse_scenario(text)
        assert doc.field is PrimeFieldElement


# ----------------------------------------------------------------------
# robustness: mutated documents raise only ScenarioParseError

_SCN_TEXTS = tuple(
    path.read_text(encoding="utf-8")
    for path in sorted([*(resources.files("conic_butterfly") / "fixtures").iterdir(),
                        *(Path(__file__).parent / "golden").glob("*.scn")], key=str)
    if path.name.endswith(".scn"))
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
