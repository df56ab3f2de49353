import sys
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conic_butterfly.projective import (
    CrossRatioValue,
    DegenerateInputError,
    ProjLine,
    ProjPoint,
    Projectivity,
    ProjectiveError,
    collinearity_residual,
    cross_ratio,
    harmonic_conjugate,
    incident,
    join,
    meet,
)
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement, ScalarParseError
from generic_formulas import apply_line, harmonic, line_chart, to_affine

G = GaussianRational
P = PrimeFieldElement


def pt(*coords):
    return ProjPoint(tuple(G.coerce(c) for c in coords), G)


def ln(*coords):
    return ProjLine(tuple(G.coerce(c) for c in coords), G)


class TestTriples:
    def test_zero_triple_rejected(self):
        with pytest.raises(ProjectiveError):
            pt(0, 0, 0)
        with pytest.raises(ProjectiveError):
            ProjPoint((1, 2), G)

    def test_equality_up_to_scale(self):
        assert pt(2, 4, 6) == pt(1, 2, 3)
        assert pt(1, 0, 0) != pt(0, 1, 0)
        assert pt("1/2", "1/3", 1) == pt(3, 2, 6)
        # a point never equals a line, even with the same coordinates
        assert pt(1, 2, 3).__eq__(ln(1, 2, 3)) is NotImplemented

    def test_hash_matches_equality(self):
        assert hash(pt(2, 4, 6)) == hash(pt(1, 2, 3))

    def test_canonical_leads_with_one(self):
        assert pt(0, 3, 6).canonical() == (G(0), G(1), G(2))

    def test_parse_round_trip(self):
        p = pt(1, Fraction(-2, 3), 0)
        assert ProjPoint.parse(str(p), G) == p
        with pytest.raises(ProjectiveError):
            ProjPoint.parse("1 : 2 : 3", G)
        with pytest.raises(ProjectiveError):
            ProjPoint.parse("(1 : 2)", G)

    def test_prime_parse_past_the_digit_limit(self):
        """A coordinate past the interpreter's digit limit is a bad literal."""
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ScalarParseError, match=f"^bad residue literal ' {digits}'$"):
            ProjPoint.parse(f"(1 : 2 : {digits})", PrimeFieldElement)

    def test_affine_chart(self):
        p = ProjPoint.affine("1/2", -3, G)
        assert p == pt(1, -6, 2)
        assert to_affine(p) == (G(Fraction(1, 2)), G(-3))
        assert to_affine(pt(1, 5, 0)) is None

    def test_reality(self):
        assert pt(1, 2, 3).is_real()
        assert not pt("1i", 1, 0).is_real()
        # projectively real despite complex coordinates: (i : i : 0) = (1 : 1 : 0)
        assert pt("1i", "1i", 0).is_real()

    @pytest.mark.parametrize("field", (G, P), ids=("gauss", "prime"))
    def test_reality_agrees_with_the_conjugate_comparison(self, field):
        """is_real reads the raw imaginary parts, then the coordinates over their
        lead entry; the answer is that of comparing with the conjugate, built
        here, in every case."""
        if field is G:
            cases = {(1, 2, 3): True, ("1/2", -4, 0): True, ("1i", "1i", "2i"): True,
                     ("1+1i", "2+2i", "-3-3i"): True, ("1+2i", "1i", "2-1i"): False,
                     ("1i", 1, 0): False, ("1+1i", "1-1i", 2): False, (0, 0, "3i"): True}
            triples = {tuple(map(G.parse, map(str, c))): real for c, real in cases.items()}
        else:
            rng = Random(5)
            triples = {tuple(P(rng.randrange(P.MODULUS)) for _ in range(3)): True for _ in range(8)}
        for coords, real in triples.items():
            for obj in (ProjPoint(coords, field), ProjLine(coords, field)):
                conjugate = type(obj)(tuple(c.conjugate() for c in obj.coords), field)
                assert obj.is_real() is real
                assert obj.is_real() == (obj == conjugate)


_P1 = str(P.MODULUS + 1)

# Triples that parse, each spelled as str never prints it: one departure per
# text, from the canonical literal (lowest terms, no /1, a bare 0, no plus
# sign or leading zero, a real part before any imaginary one and no zero
# imaginary part, ASCII digits, no inner blank), the lead 1 after zeros, the
# layout of one blank either side of each colon, or a residue below p.
NOT_PRINTED = {
    G: ("(1 : 2/4 : 0)", "(1 : 1/2+2/4i : 0)", "(1 : 3/1 : 0)", "(1 : 1+3/1i : 0)",
        "(-0 : 1 : 0)", "(0/3 : 1 : 0)", "(1 : -0 : 0)", "(1 : 0/3 : 0)", "(1 : 0+0i : 0)",
        "(1 : -0+1i : 0)", "(00 : 1 : 0)", "(+1 : 2 : 0)", "(1 : +2 : 0)", "(01 : 2 : 0)",
        "(1 : 02 : 0)", "(1 : 1/02 : 0)", "(1 : 1+02i : 0)", "(1 : 3i : 0)", "(1 : -3i : 0)",
        "(1+0i : 2 : 0)", "(1 : 2-0i : 0)", "(1 : 1 /2 : 0)", "(1 : \u0662 : 0)",
        "(2 : 4 : 0)", "(-1 : 1/2 : 0)", "(0+1i : 1 : 0)", "(0 : 2 : 1)",
        "(1:2:0)", "(1  : 2 : 0)", "( 1 : 2 : 0)", "(1 : 2 : 0 )", "(1 :\t2 : 0)",
        "(1 : 2 : 0\t)", "(\t1 : 2 : 0)", "(1 : 2 : 0\u00a0)", "( 1 : 2 :0)"),
    P: ("(1 : 0005 : 0)", "(1 : +5 : 0)", "(1 : -1 : 0)", "(1 : -0 : 0)", "(00 : 1 : 0)",
        f"({_P1} : 5 : 0)", f"(1 : {P.MODULUS} : 1)", f"(1 : {_P1} : 0)", "(2 : 5 : 0)",
        "(0 : 2 : 1)", "(1 : \u0665 : 0)", "(1:5:0)", "(1 : 5 : 0\t)", "(1: 5 : 0 )"),
}
PRINTED = {
    G: ("(1 : 1/2 : 0)", "(0 : 1 : -3/4+5/6i)", "(0 : 0 : 1)", "(1 : 0+3i : -2-1/3i)",
        "(1 : 10 : -7/100)"),
    P: ("(1 : 5 : 0)", f"(0 : 1 : {P.MODULUS - 1})", "(0 : 0 : 1)"),
}


def _no_text(raw):
    raise AssertionError("the kernel table's text was called")


class TestParsedText:
    """A parsed point or line keeps its text exactly when it is what str prints."""

    @pytest.mark.parametrize("cls", (ProjPoint, ProjLine))
    @pytest.mark.parametrize("field,text", [(f, t) for f in (G, P) for t in NOT_PRINTED[f]])
    def test_other_spellings_print_from_the_value(self, field, text, cls):
        obj = cls.parse(text, field)
        assert str(obj) == str(cls(obj.raw, field.kernels)) != text.strip()
        assert obj.raw == field.kernels.reduce_content(obj.raw)  # (2 : 4 : 0) is (1 : 2 : 0)

    @pytest.mark.parametrize("cls", (ProjPoint, ProjLine))
    @pytest.mark.parametrize("field,text", [(f, t) for f in (G, P) for t in PRINTED[f]])
    def test_the_printed_spelling_is_kept(self, field, text, cls):
        raw = cls.parse(text, field).raw
        with mock.patch.object(field, "kernels", field.kernels._replace(text=_no_text)):
            obj = cls.parse(f" {text}  ", field)
            assert str(obj) == text
        assert obj.raw == raw


class TestIncidence:
    def test_join_meet_duality(self):
        p, q = pt(1, 0, 0), pt(0, 1, 0)
        l = join(p, q)
        assert incident(p, l) and incident(q, l)
        assert meet(l, ln(1, 0, 0)) == q

    def test_degenerate_join_meet(self):
        with pytest.raises(DegenerateInputError):
            join(pt(1, 2, 3), pt(2, 4, 6))
        with pytest.raises(DegenerateInputError):
            meet(ln(1, 0, 0), ln(2, 0, 0))

    def test_backend_mixing_rejected(self):
        p = pt(1, 0, 0)
        q = ProjPoint((PrimeFieldElement(1), PrimeFieldElement(1), PrimeFieldElement(0)),
                      PrimeFieldElement)
        with pytest.raises(TypeError):
            join(p, q)

    def test_backend_mixing_rejected_by_equality_and_collinearity(self):
        P = PrimeFieldElement
        gauss = (pt(1, 2, 3), pt(2, 1, 5), pt(3, 3, 8))
        prime = tuple(ProjPoint(tuple(P(c) for c in xs), P) for xs in ((1, 2, 3), (2, 1, 5), (3, 3, 8)))
        for a, b in ((gauss, prime), (prime, gauss)):
            with pytest.raises(TypeError):
                a[0] == b[0]
            with pytest.raises(TypeError):
                join(*a[:2]) == join(*b[:2])
            for mixed in ((a[0], b[1], b[2]), (a[0], a[1], b[2])):
                with pytest.raises(TypeError):
                    collinearity_residual(*mixed)

    def test_collinearity(self):
        assert collinearity_residual(pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0)).is_zero()
        assert not collinearity_residual(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)).is_zero()

    def test_meet_of_joins_recovers_point(self):
        rng = Random(11)
        for _ in range(25):
            p, q, r = (ProjPoint(tuple(G.random(rng, 5) for _ in range(3)), G)
                       for _ in range(3))
            if collinearity_residual(p, q, r).is_zero() or p == q or p == r:
                continue
            assert meet(join(p, q), join(p, r)) == p


class TestCrossRatio:
    def test_worked_quadruple_is_harmonic(self):
        # chart coordinates 1/2, 1, infinity, 0 on the line y = 0
        quad = (pt(1, 0, 2), pt(1, 0, 1), pt(1, 0, 0), pt(0, 0, 1))
        ratio = cross_ratio(*quad)
        assert ratio.is_harmonic()
        assert ratio == CrossRatioValue(G(-1), G(1), G)

    def test_coincident_pair_values(self):
        a, b, c = pt(0, 0, 1), pt(1, 0, 1), pt(2, 0, 1)
        assert cross_ratio(a, a, b, c).is_zero()
        assert cross_ratio(a, b, c, a).den.is_zero()
        assert cross_ratio(a, b, a, c) == CrossRatioValue(G(1), G(1), G)
        with pytest.raises(DegenerateInputError):
            cross_ratio(a, a, a, b)

    def test_non_collinear_rejected(self):
        with pytest.raises(ProjectiveError):
            cross_ratio(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1))

    def test_chart_independence(self):
        # same four points, chart built from two different basis pairs
        l = ln(0, 0, 1)
        quad = [pt(1, 1, 0), pt(1, 2, 0), pt(1, -1, 0), pt(3, 1, 0)]
        r1 = cross_ratio(*quad)
        charts1 = [line_chart(l, (quad[0], quad[1]), q) for q in quad]
        charts2 = [line_chart(l, (quad[2], quad[3]), q) for q in quad]

        def from_charts(charts):
            def bracket(i, j):
                (ai, bi), (aj, bj) = charts[i], charts[j]
                return ai * bj - aj * bi

            return CrossRatioValue(bracket(0, 1) * bracket(2, 3),
                                   bracket(0, 3) * bracket(2, 1), G)

        assert from_charts(charts1) == r1
        assert from_charts(charts2) == r1

    def test_cross_ratio_value_semantics(self):
        assert CrossRatioValue(G(2), G(-4), G) == CrossRatioValue(G(-1), G(2), G)
        assert harmonic(G).plus_one().is_zero()
        assert str(CrossRatioValue.infinity(G)) == "inf"
        with pytest.raises(ProjectiveError):
            CrossRatioValue(G(0), G(0), G)


class TestHarmonicConjugate:
    def test_lemma_configuration(self):
        assert harmonic_conjugate(pt(1, 1, 1), pt(1, 0, 0), pt(0, 1, 1)) == pt(2, 1, 1)

    def test_midpoint_goes_to_infinity(self):
        w = harmonic_conjugate(pt(-1, 0, 1), pt(1, 0, 1), pt(0, 0, 1))
        assert w == pt(1, 0, 0)

    def test_involution(self):
        rng = Random(3)
        for _ in range(25):
            u, v = pt(1, 0, 2), pt(0, 1, -1)
            lam = G.random(rng, 9)
            if lam.is_zero():
                continue
            w = ProjPoint(tuple(a + lam * b for a, b in zip(u.coords, v.coords)), G)
            w2 = harmonic_conjugate(u, v, harmonic_conjugate(u, v, w))
            assert w2 == w

    def test_defines_harmonic_cross_ratio(self):
        u, v, w = pt(1, 0, 0), pt(0, 0, 1), pt(1, 0, 1)
        w_prime = harmonic_conjugate(u, v, w)
        assert cross_ratio(w_prime, u, w, v).is_harmonic()

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            harmonic_conjugate(pt(1, 0, 0), pt(1, 0, 0), pt(0, 1, 0))
        with pytest.raises(DegenerateInputError):
            harmonic_conjugate(pt(1, 0, 0), pt(0, 1, 0), pt(1, 0, 0))
        with pytest.raises(ProjectiveError):
            harmonic_conjugate(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))


class TestProjectivity:
    def test_identity(self):
        t = Projectivity(((1, 0, 0), (0, 1, 0), (0, 0, 1)), G)
        p = pt(3, -1, 2)
        assert t.apply(p) == p
        assert apply_line(t, ln(1, 2, -3)) == ln(1, 2, -3)

    def test_singular_rejected(self):
        with pytest.raises(DegenerateInputError):
            Projectivity(((1, 2, 3), (2, 4, 6), (0, 0, 1)), G)

    def test_line_action_preserves_incidence(self):
        rng = Random(9)
        for _ in range(25):
            t = Projectivity.random(rng, G, 6)
            p = ProjPoint(tuple(G.random(rng, 6) for _ in range(3)), G)
            q = ProjPoint(tuple(G.random(rng, 6) for _ in range(3)), G)
            if p == q:
                continue
            l = join(p, q)
            assert incident(t.apply(p), apply_line(t, l))
            assert incident(t.apply(q), apply_line(t, l))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_cross_ratio_is_projective_invariant(self, seed):
        rng = Random(seed)
        t = Projectivity.random(rng, G, 5)
        base1, base2 = pt(1, 2, -1), pt(0, 1, 1)
        quad = []
        while len(quad) < 4:
            a, b = G.random(rng, 7), G.random(rng, 7)
            if a.is_zero() and b.is_zero():
                continue
            q = ProjPoint(tuple(a * u + b * v for u, v in zip(base1.coords, base2.coords)), G)
            if all(q != existing for existing in quad):
                quad.append(q)
        assert cross_ratio(*(t.apply(q) for q in quad)) == cross_ratio(*quad)
