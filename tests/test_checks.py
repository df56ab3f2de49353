from fractions import Fraction
from random import Random

import pytest

from conic_butterfly import checks
from conic_butterfly.checks import (
    lemma_jap_check,
    lemma_mono_check,
    lemma_nut_check,
    lemma_sack_check,
    pascal_check,
    theorem_cutl_check,
    theorem_damn_check,
)
from conic_butterfly.conics import Conic, homogenize_affine_conic
from conic_butterfly.projective import (
    CrossRatioValue,
    ProjLine,
    ProjPoint,
    ProjectiveError,
    Projectivity,
    join,
    meet,
)
from conic_butterfly.reflection import ReflectionFrame
from conic_butterfly.reports import CheckReport, Verdict
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenarios import (
    build_scenario,
    random_hexagon,
    random_jap_inputs,
    random_mono_inputs,
    random_nut_inputs,
    random_sack_inputs,
    random_scenario,
)
from generic_formulas import affine_squared_distance, reference_conic, to_affine

G = GaussianRational


def pt(*coords):
    return ProjPoint(tuple(G.coerce(c) for c in coords), G)


def affine(x, y):
    return pt(Fraction(x), Fraction(y), 1)


CIRCLE = (1, 1, 0, 0, 0, -1)
HYPERBOLA = (1, -1, 0, 0, 0, -1)


def lemma_frame():
    """The frame of the lemma1 fixture: xy + xz - 2yz = 0 with axis x = 0, whose
    pole is (2 : 1 : 1), held as the raw (-2, -1, -1)."""
    conic = Conic.from_upper_entries((0, "1/2", "1/2", 0, -1, 0), G)
    return ReflectionFrame(conic, ProjLine((G(1), G(0), G(0)), G))


def circle_scenario(kind="damn"):
    """The butterfly_circle fixture, with i = (-9 : 8 : 10) and j = (9 : 8 : 10)."""
    return build_scenario(
        homogenize_affine_conic(CIRCLE, G),
        affine("-3/5", "4/5"), affine("3/5", "4/5"), affine(0, "4/5"),
        affine(0, 1), affine(0, -1),
        affine("4/5", "3/5"), affine("-36/85", "77/85"), kind=kind,
    )


def hyperbola_scenario():
    """The cutl_hyperbola fixture, with p = (2 : 3 : 4) and q = (-1 : 33 : 44)."""
    return build_scenario(
        homogenize_affine_conic(HYPERBOLA, G),
        affine("-5/4", "3/4"), affine("5/4", "3/4"), affine("1/4", "3/4"),
        affine("5/4", "-3/4"), affine("29/20", "-21/20"),
        affine("13/12", "-5/12"), affine("17/8", "-15/8"), kind="cutl",
    )


class TestMono:
    def test_forward_holds(self):
        for seed in range(5):
            report = lemma_mono_check(*random_mono_inputs(Random(seed)))
            assert report.verdict is Verdict.HOLDS
            assert report.witness("cr").is_harmonic()

    def test_converse_holds(self):
        for seed in range(5):
            report = lemma_mono_check(*random_mono_inputs(Random(seed), converse=True))
            assert report.verdict is Verdict.HOLDS

    def test_candidate_at_conic_point_degenerate(self):
        frame, l, y, y_prime, _m = random_mono_inputs(Random(3))
        report = lemma_mono_check(frame, l, y, y_prime, y)
        assert report.verdict is Verdict.DEGENERATE

    def test_line_must_pass_through_pole(self):
        frame, _l, y, y_prime, m = random_mono_inputs(Random(3))
        with pytest.raises(ProjectiveError):
            lemma_mono_check(frame, frame.axis, y, y_prime, m)

    def test_points_must_sit_on_conic(self):
        frame, l, y, y_prime, m = random_mono_inputs(Random(3))
        with pytest.raises(ProjectiveError):
            lemma_mono_check(frame, l, frame.pole, y_prime, m)

    @pytest.mark.parametrize("y_prime, m, message", [
        ((4, 3, 6), (0, 1, 1), "is not on l"),
        ((1, 1, 1), (0, 1, 1), "l is tangent"),
        ((1, 0, 0), (0, 0, 1), "m must lie on l"),
    ], ids=("y' off l", "tangent l", "m off l"))
    def test_rejected_inputs(self, y_prime, m, message):
        """On the lemma frame, l: y = z joins the pole to y = (1 : 1 : 1) and
        meets the conic again at (1 : 0 : 0) and the axis at (0 : 1 : 1);
        (4 : 3 : 6) is on the conic but not on l."""
        frame, y = lemma_frame(), pt(1, 1, 1)
        with pytest.raises(ProjectiveError, match=message):
            lemma_mono_check(frame, join(frame.pole, y), y, pt(*y_prime), pt(*m))


class TestJap:
    def test_holds(self):
        for seed in range(5):
            report = lemma_jap_check(*random_jap_inputs(Random(seed)))
            assert report.verdict is Verdict.HOLDS
            assert report.witness("reflect(t)") == report.witness("t'")

    def test_u_at_reflected_pair_degenerate(self):
        # worked frame whose axis meets the conic at rational points
        from conic_butterfly.conics import Conic
        from conic_butterfly.projective import ProjLine
        from conic_butterfly.reflection import ReflectionFrame

        conic = Conic.from_upper_entries((0, "1/2", "1/2", 0, -1, 0), G)
        frame = ReflectionFrame(conic, ProjLine((G(1), G(0), G(0)), G))
        y = pt(0, 1, 0)  # on the axis, so it is its own reflection
        l2 = join(frame.pole, pt(1, 1, 1))
        report = lemma_jap_check(frame, y, y, l2)
        assert report.verdict is Verdict.DEGENERATE

    def test_u_must_lie_on_axis(self):
        frame, y, _u, l2 = random_jap_inputs(Random(4))
        with pytest.raises(ProjectiveError):
            lemma_jap_check(frame, y, frame.pole, l2)

    @pytest.mark.parametrize("inputs, message", [
        (lambda frame, y, u, l2: (frame.pole, u, l2), "y must differ from the pole"),
        (lambda frame, y, u, l2: (y, u, frame.axis), "l2 must pass through the pole"),
        (lambda frame, y, u, l2: (y, u, join(frame.pole, y)), "l2 must differ from the pole line"),
    ], ids=("y at the pole", "l2 off the pole", "l2 = py"))
    def test_rejected_inputs(self, inputs, message):
        frame, *args = random_jap_inputs(Random(4))
        with pytest.raises(ProjectiveError, match=message):
            lemma_jap_check(frame, *inputs(frame, *args))

    def test_u_equal_y_degenerate(self):
        frame, _y, u, l2 = random_jap_inputs(Random(5))
        report = lemma_jap_check(frame, u, u, l2)
        assert report.verdict is Verdict.DEGENERATE

    def test_connector_through_pole_degenerate(self):
        """u = meet(py, axis) puts the connector yu on py, so t is the pole."""
        frame, y, _u, l2 = random_jap_inputs(Random(6))
        report = lemma_jap_check(frame, y, meet(join(frame.pole, y), frame.axis), l2)
        assert report.verdict is Verdict.DEGENERATE
        assert report.reason == "connector passes through the pole"


class TestNut:
    def test_holds(self):
        for seed in range(5):
            frame, y, z = random_nut_inputs(Random(seed))
            report = lemma_nut_check(frame, y, z)
            assert report.verdict is Verdict.HOLDS

    def test_self_reflected_line_degenerate(self):
        frame, y, _z = random_nut_inputs(Random(7))
        z = frame.reflect_point(y)
        report = lemma_nut_check(frame, y, z)
        assert report.verdict is Verdict.DEGENERATE

    def test_pole_rejected(self):
        frame, y, _z = random_nut_inputs(Random(8))
        with pytest.raises(ProjectiveError):
            lemma_nut_check(frame, y, frame.pole)

    def test_equal_points_rejected(self):
        frame, y, _z = random_nut_inputs(Random(8))
        with pytest.raises(ProjectiveError, match="must be distinct"):
            lemma_nut_check(frame, y, y)


class TestSack:
    def test_holds(self):
        for seed in range(5):
            report = lemma_sack_check(*random_sack_inputs(Random(seed)))
            assert report.verdict is Verdict.HOLDS

    def test_tangent_chord_degenerate(self):
        frame, u, v, m, r, _s = random_sack_inputs(Random(12))
        report = lemma_sack_check(frame, u, v, m, r, r)
        assert report.verdict is Verdict.DEGENERATE

    def test_axis_chord_degenerate(self):
        frame, u, v, m, _r, _s = random_sack_inputs(Random(13))
        report = lemma_sack_check(frame, u, v, m, u, v)
        assert report.verdict is Verdict.DEGENERATE

    @pytest.mark.parametrize("field", (GaussianRational, PrimeFieldElement), ids=("gauss", "prime"))
    def test_derived_meet_undefined_degenerate(self, field):
        """On xz = y^2 with v(t) = (1 : t : t^2), take u = v(0), v = r = m = v(1)
        and s = v(3): r is on the axis, so r' = r = v and r'v is no line."""
        v = [ProjPoint((1, t, t * t), field) for t in range(4)]
        frame = ReflectionFrame(reference_conic(field), join(v[0], v[1]))
        report = lemma_sack_check(frame, v[0], v[1], v[1], v[1], v[3])
        assert report.verdict is Verdict.DEGENERATE
        assert report.reason == "derived meet undefined"

    def test_m_must_be_the_meet(self):
        frame, u, v, _m, r, s = random_sack_inputs(Random(14))
        with pytest.raises(ProjectiveError):
            lemma_sack_check(frame, u, v, frame.pole, r, s)

    @pytest.mark.parametrize("off", ("r", "s"))
    def test_chord_ends_must_sit_on_conic(self, off):
        frame, u, v, m, r, s = random_sack_inputs(Random(14))
        r, s = (frame.pole, s) if off == "r" else (r, frame.pole)
        with pytest.raises(ProjectiveError, match="is not on the conic"):
            lemma_sack_check(frame, u, v, m, r, s)


class TestPascal:
    def test_holds(self):
        for seed in range(5):
            conic, hexagon = random_hexagon(Random(seed))
            report = pascal_check(conic, hexagon)
            assert report.verdict is Verdict.HOLDS
            assert report.witness("det").is_zero()

    def test_needs_six_vertices(self):
        conic, hexagon = random_hexagon(Random(21))
        with pytest.raises(ProjectiveError):
            pascal_check(conic, hexagon[:5])

    def test_off_conic_vertex_rejected(self):
        conic, hexagon = random_hexagon(Random(22))
        bad = hexagon[:5] + (pt(1, 2, 3),)
        if conic.contains(bad[-1]):
            pytest.skip("random conic happens to contain the probe point")
        with pytest.raises(ProjectiveError):
            pascal_check(conic, bad)

    def test_coincident_adjacent_vertices_degenerate(self):
        conic, hexagon = random_hexagon(Random(23))
        report = pascal_check(conic, hexagon[:1] + hexagon[:5])
        assert report.verdict is Verdict.DEGENERATE

    @pytest.mark.parametrize("field", (GaussianRational, PrimeFieldElement), ids=("gauss", "prime"))
    def test_opposite_sides_coincide_degenerate(self, field):
        """On xz = y^2 with v(t) = (1 : t : t^2), the hexagon (v(0), v(1),
        v(2), v(0), v(3), v(2)) has no two adjacent vertices equal, and its
        third and sixth sides are both the chord v(2)v(0)."""
        v = [ProjPoint((1, t, t * t), field) for t in range(4)]
        report = pascal_check(reference_conic(field), (v[0], v[1], v[2], v[0], v[3], v[2]))
        assert report.verdict is Verdict.DEGENERATE
        assert report.reason == "opposite sides coincide"


class TestDamn:
    def test_circle_fixture_values(self):
        report = theorem_damn_check(circle_scenario())
        assert report.verdict is Verdict.HOLDS
        assert report.witness("i") == pt(-9, 8, 10)
        assert report.witness("j") == pt(9, 8, 10)
        assert report.witness("p") == pt(1, 0, 0)
        assert report.witness("cr").is_harmonic()
        assert report.witness("reflect(i)") == report.witness("j")

    def test_random_holds(self):
        for seed in range(5):
            scenario = random_scenario(Random(seed), height_bound=6)
            report = theorem_damn_check(scenario)
            assert report.verdict is Verdict.HOLDS

    def test_tangent_chord_degenerate(self):
        conic = homogenize_affine_conic(CIRCLE, G)
        scenario = build_scenario(
            conic,
            affine("-3/5", "4/5"), affine("3/5", "4/5"), affine(0, "4/5"),
            affine(0, 1), affine(0, 1),
            affine("4/5", "3/5"), affine("-36/85", "77/85"),
        )
        assert scenario.degenerate_reason is not None
        report = theorem_damn_check(scenario)
        assert report.verdict is Verdict.DEGENERATE

    def test_coincident_chords_degenerate(self):
        conic = homogenize_affine_conic(CIRCLE, G)
        scenario = build_scenario(
            conic,
            affine("-3/5", "4/5"), affine("3/5", "4/5"), affine(0, "4/5"),
            affine(0, 1), affine(0, -1),
            affine(0, 1), affine(0, -1),
        )
        report = theorem_damn_check(scenario)
        assert report.verdict is Verdict.DEGENERATE

    def test_transform_covariance(self):
        scenario = random_scenario(Random(5), height_bound=5)
        before = theorem_damn_check(scenario)
        moved = scenario.transform(Projectivity.random(Random(6), G, 5))
        after = theorem_damn_check(moved)
        assert before.verdict is after.verdict is Verdict.HOLDS
        assert before.witness("cr") == after.witness("cr")


class TestCutl:
    def test_hyperbola_fixture_values(self):
        report = theorem_cutl_check(hyperbola_scenario())
        assert report.verdict is Verdict.HOLDS
        assert report.witness("p") == affine("1/2", "3/4")
        assert report.witness("q") == affine("-1/44", "3/4")
        assert report.witness("m'") == affine("25/4", "3/4")
        assert report.witness("cr").is_harmonic()
        assert report.witness("reflect(p)") == report.witness("q")

    def test_random_holds(self):
        for seed in range(4):
            scenario = random_scenario(Random(seed), height_bound=6, kind="cutl")
            report = theorem_cutl_check(scenario)
            assert report.verdict is Verdict.HOLDS

    def test_midpoint_makes_harmonic_conjugate_ideal(self):
        scenario = circle_scenario(kind="cutl")
        report = theorem_cutl_check(scenario)
        assert report.verdict is Verdict.HOLDS
        m_prime = report.witness("m'")
        assert to_affine(m_prime) is None
        d1 = affine_squared_distance(report.witness("p"), scenario.points["m"])
        d2 = affine_squared_distance(report.witness("q"), scenario.points["m"])
        assert d1 == d2

    def test_complex_inputs_rejected(self):
        i = G(0, 1)
        with pytest.raises(ProjectiveError):
            build_scenario(
                homogenize_affine_conic(CIRCLE, G),
                pt(i, 0, 1), affine("3/5", "4/5"), affine(0, "4/5"),
                affine(0, 1), affine(0, -1),
                affine("4/5", "3/5"), affine("-36/85", "77/85"), kind="cutl",
            )


def assert_violated(report, residual):
    """VIOLATED with exactly `residual`, which the report prints."""
    assert report.verdict is Verdict.VIOLATED
    assert not residual.is_zero()
    assert report.residual == residual
    assert report.to_text().splitlines()[-2] == f"residual {residual}"


def constant(value):
    return lambda *args: value


class TestViolated:
    """Each checker's VIOLATED return, reached by breaking one step it takes
    (a global of `checks`, or `ReflectionFrame.reflect_point`)."""

    def test_mono_forward(self, monkeypatch):
        # m is the axis meet n, but the cross-ratio reads 2: the residual is cr + 1
        frame = lemma_frame()
        y = pt(1, 1, 1)
        monkeypatch.setattr(checks, "cross_ratio", constant(CrossRatioValue(G(2), G(1), G)))
        report = lemma_mono_check(frame, join(frame.pole, y), y, pt(1, 0, 0), pt(0, 1, 1))
        assert_violated(report, CrossRatioValue(G(3), G(1), G))

    def test_mono_converse(self, monkeypatch):
        # m = (3 : 1 : 1) is off the axis, but the cross-ratio reads -1: the
        # residual is cross(m, n) = (0, 3, -3) at its first nonzero slot, for
        # n = (0 : 1 : 1) held as the raw (0, -1, -1)
        frame = lemma_frame()
        y = pt(1, 1, 1)
        monkeypatch.setattr(checks, "cross_ratio", constant(CrossRatioValue(G(-1), G(1), G)))
        report = lemma_mono_check(frame, join(frame.pole, y), y, pt(1, 0, 0), pt(3, 1, 1))
        assert_violated(report, G(3))

    def test_jap(self, monkeypatch):
        # reflect(t) stays at t = (4 : 7 : 7) and misses t' = (-4 : 3 : 3):
        # cross(t, t') = (0, -40, 40)
        frame, y = lemma_frame(), pt(1, 2, 3)
        reflect = ReflectionFrame.reflect_point
        monkeypatch.setattr(ReflectionFrame, "reflect_point",
                            lambda self, w: reflect(self, w) if w == y else w)
        report = lemma_jap_check(frame, y, pt(0, 1, 5), join(frame.pole, pt(1, 0, 0)))
        assert_violated(report, G(-40))

    def test_nut(self, monkeypatch):
        # the meet comes back as the pole, so the residual is k.p = -2
        frame = lemma_frame()
        monkeypatch.setattr(checks, "meet", constant(frame.pole))
        assert_violated(lemma_nut_check(frame, pt(1, 2, 3), pt(3, 1, 2)), G(-2))

    @pytest.mark.parametrize("main, chain, residual", [(5, None, 5), (None, 7, 7), (5, 7, 5)])
    def test_sack_reports_main_before_chain(self, monkeypatch, main, chain, residual):
        """The main residual (p, m, x) is reported when nonzero, else the
        chain's (z, m, x); None keeps a determinant's true value, 0."""
        frame, u, v, m, r, s = random_sack_inputs(Random(0))
        true = checks.collinearity_residual

        def broken(p, q, w):
            value = main if p is frame.pole else chain
            return true(p, q, w) if value is None else G(value)

        monkeypatch.setattr(checks, "collinearity_residual", broken)
        assert_violated(lemma_sack_check(frame, u, v, m, r, s), G(residual))

    def test_pascal(self, monkeypatch):
        conic, hexagon = random_hexagon(Random(0))
        monkeypatch.setattr(checks, "collinearity_residual", constant(G(3)))
        report = pascal_check(conic, hexagon)
        assert report.witness("det") == G(3)
        assert_violated(report, G(3))

    @pytest.mark.parametrize("scenario", (circle_scenario, hyperbola_scenario), ids=("damn", "cutl"))
    def test_butterfly_cross_ratio_route(self, monkeypatch, scenario):
        monkeypatch.setattr(checks, "cross_ratio", constant(CrossRatioValue(G(2), G(1), G)))
        assert_violated(theorem_damn_check(scenario()), CrossRatioValue(G(3), G(1), G))

    @pytest.mark.parametrize("scenario, residual", [(circle_scenario, 180), (hyperbola_scenario, 92)],
                             ids=("damn", "cutl"))
    def test_butterfly_reflection_route(self, monkeypatch, scenario, residual):
        # the reflection leaves d1 where it is; cross(d1, d2) is (0, 180, -144)
        # for the circle's i and j, held as the raw (-9, 8, 10) and (9, 8, 10),
        # and (0, 92, -69) for the hyperbola's p and q, held as (-2, -3, -4)
        # and (-1, 33, 44)
        monkeypatch.setattr(ReflectionFrame, "reflect_point", lambda self, w: w)
        assert_violated(theorem_damn_check(scenario()), G(residual))


def test_affine_squared_distance_rejects_ideal():
    with pytest.raises(ProjectiveError):
        affine_squared_distance(pt(1, 0, 0), pt(0, 0, 1))


def test_affine_squared_distance_value():
    assert affine_squared_distance(affine(0, 0), affine(3, 4)) == G(25)


class TestCheckReport:
    def test_violated_needs_a_residual(self):
        with pytest.raises(ValueError, match="must carry its residual"):
            CheckReport("nut", Verdict.VIOLATED, [("y", pt(1, 1, 1))])

    def test_missing_witness(self):
        report = CheckReport("nut", Verdict.HOLDS, [("y", pt(1, 1, 1))])
        assert report.witness("y") == pt(1, 1, 1)
        with pytest.raises(KeyError, match="no witness 'z'"):
            report.witness("z")
