from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conic_butterfly.conics import (
    Conic,
    ConicParametrization,
    DegenerateConicError,
    _second_point_on,
    conic_through_five,
    homogenize_affine_conic,
    second_intersection,
    transform_conic,
)
from conic_butterfly.projective import (
    ProjLine,
    ProjPoint,
    Projectivity,
    ProjectiveError,
    incident,
    join,
)
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenarios import random_conic, reference_conic
from generic_formulas import (affine_spec_from_conic, apply_line, chart_line, reference_base,
                              upper_entries)

G = GaussianRational


def pt(*coords):
    return ProjPoint(tuple(G.coerce(c) for c in coords), G)


def circle():
    return homogenize_affine_conic((1, 1, 0, 0, 0, -1), G)


class TestConicConstruction:
    def test_shape_and_symmetry_required(self):
        with pytest.raises(ProjectiveError):
            Conic(((1, 0), (0, 1)), G)
        with pytest.raises(ProjectiveError):
            Conic(((1, 2, 0), (0, 1, 0), (0, 0, 1)), G)
        with pytest.raises(ProjectiveError, match="expected 6 symmetric entries"):
            Conic.from_upper_entries((1, 0, 0, 1, 0), G)

    def test_degenerate_rejected_with_witness(self):
        with pytest.raises(DegenerateConicError) as exc:
            Conic(((1, 0, 0), (0, 1, 0), (0, 0, 0)), G)
        assert exc.value.witness is not None and exc.value.witness.is_zero()

    def test_upper_entries_round_trip(self):
        c = Conic.from_upper_entries((0, "1/2", "1/2", 0, -1, 0), G)
        assert Conic.from_upper_entries(upper_entries(c), G) == c

    def test_equality_up_to_scale(self):
        c1 = Conic.from_upper_entries((1, 0, 0, 1, 0, -1), G)
        c2 = Conic.from_upper_entries((2, 0, 0, 2, 0, -2), G)
        assert c1 == c2
        assert hash(c1) == hash(c2)
        assert c1 != reference_conic(G)


    @pytest.mark.parametrize("field", [G, PrimeFieldElement], ids=["gauss", "prime"])
    def test_reality_reads_the_form_over_its_lead(self, field):
        """A form is real when it is fixed by entry-wise conjugation up to
        scale: a real form times a complex scalar is real, and on gauss a form
        with one complex entry is not.  The conjugate is built here as the oracle."""
        rows = ((1, 2, 0), (2, -3, 1), (0, 1, 5))
        scale = G(2, 3) if field is G else field(7)  # 2 + 3i on gauss
        cases = [(rows, True), ([[field(x) * scale for x in r] for r in rows], True)]
        if field is G:
            cases.append((((1, "1i", 0), ("1i", -3, 1), (0, 1, 5)), False))
        for entries, real in cases:
            conic = Conic(entries, field)
            conjugate = Conic(tuple(tuple(e.conjugate() for e in r) for r in conic.form), field)
            assert conic.is_real() is real
            assert conic.is_real() == (conic == conjugate)


class TestAffineConics:
    def test_circle_membership(self):
        c = circle()
        assert c.contains(ProjPoint.affine("3/5", "4/5", G))
        assert not c.contains(pt(1, 1, 1))
        assert c.contains(pt(1, "1i", 0))  # circular point at infinity

    def test_hyperbola_membership(self):
        c = homogenize_affine_conic((1, -1, 0, 0, 0, -1), G)
        assert c.contains(pt(-5, 3, 4))

    def test_parabola_membership(self):
        c = homogenize_affine_conic((1, 0, 0, 0, -1, 0), G)
        assert c.contains(pt(2, 4, 1))

    def test_spec_validation(self):
        with pytest.raises(ProjectiveError, match="genuinely quadratic"):
            homogenize_affine_conic((0, 0, 0, 1, 1, 1), G)
        with pytest.raises(ProjectiveError, match="must be real"):
            homogenize_affine_conic(("1i", 1, 0, 0, 0, -1), G)
        for count in (5, 7):
            with pytest.raises(ProjectiveError, match="expected 6 affine coefficients"):
                homogenize_affine_conic((1,) * count, G)

    def test_spec_round_trip(self):
        spec = (1, -1, 0, 0, 0, -1)
        conic = homogenize_affine_conic(spec, G)
        assert affine_spec_from_conic(conic) == tuple(map(G.coerce, spec))
        assert homogenize_affine_conic(affine_spec_from_conic(conic), G) == conic

    def test_spec_from_complex_conic_rejected(self):
        c = Conic.from_upper_entries((1, 0, 0, "1i", 0, -1), G)
        with pytest.raises(ProjectiveError):
            affine_spec_from_conic(c)


class TestPolarity:
    def test_polar_pole_inverse(self):
        c = circle()
        p = pt(3, -2, 1)
        assert c.pole(c.polar(p)) == p
        l = ProjLine((G(1), G(2), G(-2)), G)
        assert c.polar(c.pole(l)) == l

    def test_backend_mixing_rejected(self):
        P = PrimeFieldElement
        gauss = Conic.from_upper_entries((1, 0, 0, 1, 0, -1), G)
        prime = Conic.from_upper_entries(tuple(P(k % P.MODULUS) for k in (1, 0, 0, 1, 0, -1)), P)
        for c, p, l in ((gauss, ProjPoint((P(3), P(4), P(5)), P), ProjLine((P(1), P(0), P(1)), P)),
                        (prime, pt(3, 4, 5), ProjLine((G(1), G(0), G(1)), G))):
            for call in (lambda: c.polar(p), lambda: c.pole(l), lambda: c.contains(p)):
                with pytest.raises(TypeError):
                    call()

    def test_tangent_at(self):
        c = Conic.from_upper_entries((0, "1/2", "1/2", 0, -1, 0), G)
        assert c.tangent_at(pt(0, 1, 0)) == ProjLine((G(1), G(0), G(-2)), G)
        assert c.tangent_at(pt(0, 0, 1)) == ProjLine((G(1), G(-2), G(0)), G)
        with pytest.raises(ProjectiveError):
            c.tangent_at(pt(1, 1, 0))

    def test_conjugacy_symmetry(self):
        rng = Random(4)
        c, _base = random_conic(rng, G, 6)
        for _ in range(50):
            p = ProjPoint(tuple(G.random(rng, 6) for _ in range(3)), G)
            q = ProjPoint(tuple(G.random(rng, 6) for _ in range(3)), G)
            assert incident(q, c.polar(p)) == incident(p, c.polar(q))

    def test_polar_on_conic_is_tangent(self):
        rng = Random(8)
        c, base = random_conic(rng, G, 6)
        par = ConicParametrization(c, base)
        for _ in range(20):
            p = par.point(G.random(rng, 6))
            assert c.polar(p) == c.tangent_at(p)


class TestFivePoints:
    def test_recovers_circle(self):
        c = circle()
        par = ConicParametrization(c, pt(0, 1, 1))
        pts = [par.point(G(t)) for t in (0, 1, -1, 2, 3)]
        assert conic_through_five(pts) == c

    def test_all_points_incident(self):
        rng = Random(21)
        c, base = random_conic(rng, G, 5)
        par = ConicParametrization(c, base)
        pts = [par.point(G(t)) for t in (0, 1, 2, 3, 4)]
        rebuilt = conic_through_five(pts)
        assert rebuilt == c

    def test_bad_inputs(self):
        with pytest.raises(ProjectiveError):
            conic_through_five([pt(1, 0, 0)] * 5)
        collinear_pts = [pt(t, 0, 1) for t in range(4)] + [pt(0, 1, 0)]
        with pytest.raises(ProjectiveError):
            conic_through_five(collinear_pts)
        with pytest.raises(ProjectiveError, match="expected exactly 5 points"):
            conic_through_five(collinear_pts[:4])


class TestSecondIntersection:
    def test_circle_chord(self):
        c = circle()
        known, other = pt(1, 0, 1), pt(0, 1, 1)
        l = join(known, other)
        assert second_intersection(c, l, known) == other

    def test_tangent_returns_known(self):
        c = circle()
        p = pt(0, 1, 1)
        assert second_intersection(c, c.tangent_at(p), p) == p

    @pytest.mark.parametrize("field", [G, PrimeFieldElement], ids=["gauss", "prime"])
    def test_second_point_reaches_the_third_candidate(self, field):
        """On l = (1 : 1 : 0) the meets with e0 and e1 are both (0 : 0 : 1)."""
        l = ProjLine((field(1), field(1), field(0)), field)
        known = ProjPoint((field(0), field(0), field(1)), field)
        assert _second_point_on(l, known) == ProjPoint((field(1), field(-1), field(0)), field)

    def test_preconditions(self):
        c = circle()
        with pytest.raises(ProjectiveError):
            second_intersection(c, ProjLine((G(0), G(0), G(1)), G), pt(1, 0, 1))
        with pytest.raises(ProjectiveError):
            second_intersection(c, ProjLine((G(1), G(0), G(0)), G), pt(0, 5, 1))


class TestParametrization:
    def test_base_must_be_on_conic(self):
        with pytest.raises(ProjectiveError):
            ConicParametrization(circle(), pt(2, 0, 1))

    def test_infinity_parameter_is_base(self):
        par = ConicParametrization(circle(), pt(0, 1, 1))
        assert par.point((G(1), G(0))) == pt(0, 1, 1)

    def test_circle_sweep(self):
        par = ConicParametrization(circle(), pt(0, 1, 1))
        c = circle()
        for t in range(-5, 6):
            p = par.point(G(t))
            assert c.contains(p)
            assert incident(p, chart_line(par, G(t)))
            assert incident(par.base, chart_line(par, G(t)))

    def test_matches_direct_chord_solve(self):
        # the precomputed quadratic coefficients against the slow path
        rng = Random(17)
        for _ in range(10):
            conic, base = random_conic(rng, G, 6)
            par = ConicParametrization(conic, base)
            for _ in range(10):
                t = G.random(rng, 9)
                slow = second_intersection(conic, chart_line(par, t), base)
                assert par.point(t) == slow

    def test_injective_on_parameters(self):
        rng = Random(19)
        conic, base = random_conic(rng, G, 6)
        par = ConicParametrization(conic, base)
        seen = {}
        for _ in range(40):
            t = G.random(rng, 5)
            p = par.point(t)
            for other_t, other_p in seen.items():
                assert (other_t == t) == (other_p == p)
            seen[t] = p

    def test_coefficient_identity(self):
        # point(t) must equal t^2*A2 + t*A1 + A0 coordinate-wise
        par = ConicParametrization(circle(), pt(0, 1, 1))
        a2, a1, a0 = par.point_coefficients()
        t = G("3/7")
        expected = tuple(t * t * x2 + t * x1 + x0 for x2, x1, x0 in zip(a2, a1, a0))
        assert par.point(t) == ProjPoint(expected, G)

    def test_zero_parameter_pair_rejected(self):
        par = ConicParametrization(circle(), pt(0, 1, 1))
        with pytest.raises(ProjectiveError):
            par.point((G(0), G(0)))

    def test_prime_backend(self):
        P = PrimeFieldElement
        conic = reference_conic(P)
        par = ConicParametrization(conic, reference_base(P))
        rng = Random(23)
        for _ in range(20):
            t = P.random(rng, 1)
            p = par.point(t)
            assert conic.contains(p)
            assert p == second_intersection(conic, chart_line(par, t), par.base)


class TestTransformConic:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_membership_covariance(self, seed):
        rng = Random(seed)
        conic, base = random_conic(rng, G, 5)
        par = ConicParametrization(conic, base)
        p = par.point(G.random(rng, 5))
        t = Projectivity.random(rng, G, 5)
        image = transform_conic(t, conic)
        assert image.contains(t.apply(p))

    def test_tangency_covariance(self):
        rng = Random(29)
        for _ in range(10):
            conic, base = random_conic(rng, G, 5)
            par = ConicParametrization(conic, base)
            p = par.point(G.random(rng, 5))
            t = Projectivity.random(rng, G, 5)
            image = transform_conic(t, conic)
            assert image.tangent_at(t.apply(p)) == apply_line(t, conic.tangent_at(p))

    def test_identity_fixes_conic(self):
        c = circle()
        identity = Projectivity(((1, 0, 0), (0, 1, 0), (0, 0, 1)), G)
        assert transform_conic(identity, c) == c
