from fractions import Fraction
from random import Random

import pytest

from conic_butterfly.checks import (
    lemma_jap_check,
    lemma_mono_check,
    lemma_nut_check,
    lemma_sack_check,
    pascal_check,
    theorem_cutl_check,
    theorem_damn_check,
)
from conic_butterfly.conics import homogenize_affine_conic
from conic_butterfly.projective import (
    ProjPoint,
    ProjectiveError,
    Projectivity,
    join,
)
from conic_butterfly.reports import Verdict
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenarios import (
    build_scenario,
    random_hexagon,
    random_jap_inputs,
    random_mono_inputs,
    random_nut_inputs,
    random_sack_inputs,
    random_scenario,
    reference_conic,
)
from generic_formulas import affine_squared_distance

G = GaussianRational


def pt(*coords):
    return ProjPoint(tuple(G.coerce(c) for c in coords), G)


def affine(x, y):
    return pt(Fraction(x), Fraction(y), 1)


CIRCLE = (1, 1, 0, 0, 0, -1)
HYPERBOLA = (1, -1, 0, 0, 0, -1)


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

    def test_u_equal_y_degenerate(self):
        frame, _y, u, l2 = random_jap_inputs(Random(5))
        report = lemma_jap_check(frame, u, u, l2)
        assert report.verdict is Verdict.DEGENERATE


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

    def test_m_must_be_the_meet(self):
        frame, u, v, _m, r, s = random_sack_inputs(Random(14))
        with pytest.raises(ProjectiveError):
            lemma_sack_check(frame, u, v, frame.pole, r, s)


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
        conic = homogenize_affine_conic(CIRCLE, G)
        scenario = build_scenario(
            conic,
            affine("-3/5", "4/5"), affine("3/5", "4/5"), affine(0, "4/5"),
            affine(0, 1), affine(0, -1),
            affine("4/5", "3/5"), affine("-36/85", "77/85"),
        )
        report = theorem_damn_check(scenario)
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
        scenario = build_scenario(
            homogenize_affine_conic(HYPERBOLA, G),
            affine("-5/4", "3/4"), affine("5/4", "3/4"), affine("1/4", "3/4"),
            affine("5/4", "-3/4"), affine("29/20", "-21/20"),
            affine("13/12", "-5/12"), affine("17/8", "-15/8"), kind="cutl",
        )
        report = theorem_cutl_check(scenario)
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
        scenario = build_scenario(
            homogenize_affine_conic(CIRCLE, G),
            affine("-3/5", "4/5"), affine("3/5", "4/5"), affine(0, "4/5"),
            affine(0, 1), affine(0, -1),
            affine("4/5", "3/5"), affine("-36/85", "77/85"), kind="cutl",
        )
        report = theorem_cutl_check(scenario)
        assert report.verdict is Verdict.HOLDS
        m_prime = report.witness("m'")
        assert m_prime.to_affine() is None
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


def test_affine_squared_distance_rejects_ideal():
    with pytest.raises(ProjectiveError):
        affine_squared_distance(pt(1, 0, 0), pt(0, 0, 1))


def test_affine_squared_distance_value():
    assert affine_squared_distance(affine(0, 0), affine(3, 4)) == G(25)
