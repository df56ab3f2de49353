from random import Random

import pytest

from conic_butterfly.checks import lemma_sack_check
from conic_butterfly.conics import Conic, ConicParametrization
from conic_butterfly.projective import (
    DegenerateInputError,
    ProjLine,
    ProjPoint,
    ProjectiveError,
    cross_ratio,
    incident,
    join,
    meet,
)
from conic_butterfly.reflection import ReflectionFrame
from conic_butterfly.reports import Verdict
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenarios import random_reflection_frame

G = GaussianRational


def pt(*coords):
    return ProjPoint(tuple(G.coerce(c) for c in coords), G)


@pytest.fixture
def worked_frame():
    # conic xy + xz - 2yz = 0, axis x = 0 with conic points (0:1:0), (0:0:1)
    conic = Conic.from_upper_entries((0, "1/2", "1/2", 0, -1, 0), G)
    axis = ProjLine((G(1), G(0), G(0)), G)
    return ReflectionFrame(conic, axis)


class TestWorkedExample:
    def test_pole_is_tangent_meet(self, worked_frame):
        f = worked_frame
        assert f.pole == pt(2, 1, 1)
        tangents = (f.conic.tangent_at(pt(0, 1, 0)), f.conic.tangent_at(pt(0, 0, 1)))
        assert meet(*tangents) == f.pole

    def test_reflection_value(self, worked_frame):
        y = pt(1, 1, 1)
        y_prime = worked_frame.reflect_point(y)
        assert y_prime == pt(1, 0, 0)
        assert worked_frame.reflect_point(y_prime) == y

    def test_defining_harmonic_relation(self, worked_frame):
        f = worked_frame
        y = pt(1, 1, 1)
        y_prime = f.reflect_point(y)
        n = meet(join(f.pole, y), f.axis)
        assert cross_ratio(f.pole, y, n, y_prime).is_harmonic()


class TestFrameValidation:
    def test_tangent_axis_rejected(self, worked_frame):
        conic = worked_frame.conic
        tangent = conic.tangent_at(pt(0, 1, 0))
        with pytest.raises(DegenerateInputError):
            ReflectionFrame(conic, tangent)

    def test_chord_endpoints_checked(self, worked_frame):
        """The sack lemma takes the axis chord's endpoints u, v beside the frame
        and checks them first: distinct, then each on the conic and on the axis."""
        u, v = pt(0, 1, 0), pt(0, 0, 1)
        rest = pt(0, 1, 1), pt(1, 0, 0), pt(1, 1, 1)  # m on the axis, chord (r, s) through it
        assert lemma_sack_check(worked_frame, u, v, *rest).verdict is Verdict.HOLDS
        with pytest.raises(DegenerateInputError, match="chord endpoints must be distinct"):
            lemma_sack_check(worked_frame, u, u, *rest)
        with pytest.raises(ProjectiveError, match=r"\(0 : 1 : 1\) is not on the conic"):
            lemma_sack_check(worked_frame, pt(0, 1, 1), v, *rest)
        with pytest.raises(ProjectiveError, match=r"\(1 : 0 : 0\) is not on the axis"):
            lemma_sack_check(worked_frame, u, pt(1, 0, 0), *rest)

    def test_reflection_undefined_at_pole(self, worked_frame):
        with pytest.raises(DegenerateInputError):
            worked_frame.reflect_point(worked_frame.pole)


class TestProperties:
    def test_involution(self):
        rng = Random(31)
        for _ in range(10):
            frame, _ = random_reflection_frame(rng, G, 6)
            for _ in range(10):
                y = ProjPoint(tuple(G.random(rng, 6) for _ in range(3)), G)
                if y == frame.pole:
                    continue
                assert frame.reflect_point(frame.reflect_point(y)) == y

    def test_conic_preserved(self):
        rng = Random(37)
        for _ in range(10):
            frame, base = random_reflection_frame(rng, G, 6)
            par = ConicParametrization(frame.conic, base)
            for _ in range(10):
                y = par.point(G.random(rng, 6))
                if y == frame.pole:
                    continue
                assert frame.conic.contains(frame.reflect_point(y))

    def test_axis_fixed_pointwise(self):
        rng = Random(41)
        frame, _ = random_reflection_frame(rng, G, 6)
        a, b, c = frame.axis.coords
        # two explicit axis points and a random combination
        samples = []
        if not c.is_zero():
            samples.append(pt(*(c, G(0), -a)))
            samples.append(pt(*(G(0), c, -b)))
        else:
            samples.append(pt(*(b, -a, G(0))))
            samples.append(pt(*(G(0), G(0), G(1))))
        for y in samples:
            assert incident(y, frame.axis)
            assert frame.reflect_point(y) == y

    def test_pole_pencil_stable(self):
        rng = Random(43)
        frame, _ = random_reflection_frame(rng, G, 6)
        for _ in range(10):
            w = ProjPoint(tuple(G.random(rng, 6) for _ in range(3)), G)
            if w == frame.pole:
                continue
            l = join(frame.pole, w)
            assert frame.reflect_line(l) == l

    def test_line_reflection_involution(self):
        rng = Random(47)
        frame, _ = random_reflection_frame(rng, G, 6)
        for _ in range(10):
            coords = tuple(G.random(rng, 6) for _ in range(3))
            if all(c.is_zero() for c in coords):
                continue
            l = ProjLine(coords, G)
            assert frame.reflect_line(frame.reflect_line(l)) == l

    def test_line_reflection_matches_pointwise(self, worked_frame):
        l = join(pt(1, 1, 1), pt(0, 1, 1))
        reflected = worked_frame.reflect_line(l)
        assert incident(worked_frame.reflect_point(pt(1, 1, 1)), reflected)
        assert incident(worked_frame.reflect_point(pt(0, 1, 1)), reflected)

    def test_line_reflection_rejects_mixed_backends(self, worked_frame):
        with pytest.raises(TypeError, match="cannot mix scalar backends"):
            worked_frame.reflect_line(ProjLine.parse("(1 : 2 : 3)", PrimeFieldElement))
