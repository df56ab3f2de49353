"""Differential tests of the line kernel against the join -> chart chain.

The kernel reads cross-ratios and harmonic conjugates off single minors at
one slot of the spanning cross product, and reflects by the harmonic
homology.  The reference implementations below are the older chain that
builds the axis with `join`, charts every point with `line_chart`, and
reflects through `meet` and a charted conjugate.  Both must agree on the
exact coordinates and scalars, not just up to scale, and must raise the
same exception with the same message.  The reference tests coincidence
with the full cross product, so it does not share `_Triple.__eq__`.
"""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conic_butterfly._linalg import cross, dot, matmul, matvec
from conic_butterfly.projective import (
    DegenerateInputError,
    ProjLine,
    ProjPoint,
    ProjectiveError,
    cross_ratio,
    harmonic_conjugate,
    incident,
    join,
    line_chart,
    meet,
)
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenarios import random_reflection_frame

G = GaussianRational
P = PrimeFieldElement
FIELDS = (G, P)


# ----------------------------------------------------------------------
# reference chain


def _same(a, b) -> bool:
    return all(c.is_zero() for c in cross(a.coords, b.coords))


def ref_cross_ratio(p1, p2, p3, p4):
    points = (p1, p2, p3, p4)
    for i, j, k in combinations(range(4), 3):
        if _same(points[i], points[j]) and _same(points[j], points[k]):
            raise DegenerateInputError("cross-ratio is undefined with three coincident points")
    b1, b2 = next((points[i], points[j]) for i, j in combinations(range(4), 2)
                  if not _same(points[i], points[j]))
    axis = join(b1, b2)
    for q in points:
        if not incident(q, axis):
            raise ProjectiveError("cross-ratio requires four collinear points")
    charts = [line_chart(axis, (b1, b2), q) for q in points]

    def bracket(i, j):
        (ai, bi), (aj, bj) = charts[i], charts[j]
        return ai * bj - aj * bi

    return (bracket(0, 1) * bracket(2, 3), bracket(0, 3) * bracket(2, 1))


def ref_harmonic_conjugate(u, v, w):
    if _same(u, v):
        raise DegenerateInputError("harmonic conjugate needs a distinct reference pair")
    if _same(w, u) or _same(w, v):
        raise DegenerateInputError("harmonic conjugate is undefined at the reference points")
    axis = join(u, v)
    if not incident(w, axis):
        raise ProjectiveError("harmonic conjugate requires collinear input")
    alpha, beta = line_chart(axis, (u, v), w)
    return ProjPoint(tuple(alpha * uc - beta * vc for uc, vc in zip(u.coords, v.coords)), u.field)


def ref_reflect_point(frame, y):
    if _same(y, frame.pole):
        raise DegenerateInputError("reflection is undefined at the pole")
    if incident(y, frame.axis):
        return y
    n = meet(frame.axis, join(frame.pole, y))
    return ref_harmonic_conjugate(frame.pole, n, y)


def outcome(fn, *args):
    """What a call produced: its exact value, or its exception type and message."""
    try:
        result = fn(*args)
    except ValueError as exc:  # ProjectiveError and its subclasses included
        return ("raised", type(exc), str(exc))
    if isinstance(result, ProjPoint):
        return ("point", result.coords)
    if isinstance(result, tuple):
        return ("pair", result)
    return ("pair", (result.num, result.den))


# ----------------------------------------------------------------------
# strategies

# small entries with plenty of zeros, so spanning cross products often have
# leading zero slots and the first-nonzero-slot logic is exercised
_SMALL = st.integers(-4, 4)


def scalars(field):
    if field is G:
        return st.one_of(
            _SMALL.map(G),
            st.builds(lambda a, b, d, e: G(Fraction(a, d), Fraction(b, e)),
                      st.integers(-10**12, 10**12), st.integers(-10**12, 10**12),
                      st.integers(1, 50), st.integers(1, 50)),
        )
    return st.one_of(_SMALL.map(P), st.integers(0, P.MODULUS - 1).map(P))


@st.composite
def points(draw, field):
    """Random points, often on a coordinate line, where some minors vanish."""
    coords = list(draw(st.tuples(*(scalars(field),) * 3)))
    for slot in draw(st.sets(st.integers(0, 2), max_size=2)):
        coords[slot] = field.zero()
    assume(not all(c.is_zero() for c in coords))
    return ProjPoint(tuple(coords), field)


@st.composite
def collinear_tuples(draw, field, size):
    """Points a*u + b*v on one line; some repeat an earlier point (rescaled),
    and one may be pushed off the line."""
    u, v = draw(points(field)), draw(points(field))
    assume(not _same(u, v))
    out = []
    for _ in range(size):
        kind = draw(st.sampled_from(("line", "line", "line", "repeat", "base", "off")))
        if kind == "repeat" and out:
            lam = draw(scalars(field))
            assume(not lam.is_zero())
            q = draw(st.sampled_from(out))
            out.append(ProjPoint(tuple(lam * c for c in q.coords), field))
        elif kind == "base":
            out.append(draw(st.sampled_from((u, v))))
        elif kind == "off":
            out.append(draw(points(field)))
        else:
            a, b = draw(scalars(field)), draw(scalars(field))
            coords = tuple(a * x + b * y for x, y in zip(u.coords, v.coords))
            assume(not all(c.is_zero() for c in coords))
            out.append(ProjPoint(coords, field))
    return tuple(out)


def frames_and_points(field):
    """A reflection frame with a point that is random, the pole (rescaled),
    on the axis, or on a line through the pole."""

    @st.composite
    def build(draw):
        frame, _par = random_reflection_frame(Random(draw(st.integers(0, 2**32))), field, 8)
        kind = draw(st.sampled_from(("free", "free", "pole", "axis", "pencil")))
        lam = draw(scalars(field))
        assume(not lam.is_zero())
        if kind == "pole":
            y = ProjPoint(tuple(lam * c for c in frame.pole.coords), field)
        elif kind == "axis":
            w = draw(points(field))
            assume(not _same(w, frame.pole))
            y = meet(frame.axis, join(frame.pole, w))
        elif kind == "pencil":
            w = draw(points(field))
            assume(not _same(w, frame.pole))
            coords = tuple(c + lam * d for c, d in zip(frame.pole.coords, w.coords))
            assume(not all(c.is_zero() for c in coords))
            y = ProjPoint(coords, field)
        else:
            y = draw(points(field))
        return frame, y

    return build()


# ----------------------------------------------------------------------
# cross-ratio and harmonic conjugate


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cross_ratio_matches_chart_chain(field, data):
    quad = data.draw(collinear_tuples(field, 4))
    assert outcome(cross_ratio, *quad) == outcome(ref_cross_ratio, *quad)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_harmonic_conjugate_matches_chart_chain(field, data):
    u, v, w = data.draw(collinear_tuples(field, 3))
    assert outcome(harmonic_conjugate, u, v, w) == outcome(ref_harmonic_conjugate, u, v, w)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
def test_named_failures_match(field):
    def pt(*c):
        return ProjPoint(tuple(field.from_int(x) for x in c), field)

    a, b, c = pt(0, 0, 1), pt(1, 0, 1), pt(2, 0, 1)
    cases = [
        (cross_ratio, ref_cross_ratio, (a, a, pt(0, 0, 5), b)),        # three coincident
        (cross_ratio, ref_cross_ratio, (a, a, a, a)),                  # all four coincident
        (cross_ratio, ref_cross_ratio, (b, a, pt(3, 0, 3), pt(7, 0, 7))),
        (cross_ratio, ref_cross_ratio, (a, b, c, pt(1, 1, 1))),        # not collinear
        (cross_ratio, ref_cross_ratio, (a, b, a, c)),                  # one coincident pair
        (harmonic_conjugate, ref_harmonic_conjugate, (a, pt(0, 0, 3), b)),   # reference pair
        (harmonic_conjugate, ref_harmonic_conjugate, (a, b, pt(0, 0, 2))),   # at u
        (harmonic_conjugate, ref_harmonic_conjugate, (a, b, pt(4, 0, 4))),   # at v
        (harmonic_conjugate, ref_harmonic_conjugate, (a, b, pt(0, 1, 0))),   # off the line
    ]
    for new, ref, args in cases:
        assert outcome(new, *args) == outcome(ref, *args)
    assert outcome(cross_ratio, a, a, pt(0, 0, 5), b)[:2] == ("raised", DegenerateInputError)
    assert outcome(cross_ratio, a, b, c, pt(1, 1, 1))[:2] == ("raised", ProjectiveError)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_point_equality_is_the_full_cross_product(field, data):
    p = data.draw(points(field))
    lam = data.draw(scalars(field))
    if data.draw(st.booleans()) and not lam.is_zero():
        q = ProjPoint(tuple(lam * c for c in p.coords), field)
    else:
        q = data.draw(points(field))
    assert (p == q) == _same(p, q)
    assert (ProjLine(p.coords, field) == ProjLine(q.coords, field)) == _same(p, q)


# ----------------------------------------------------------------------
# reflection


def homology(frame):
    """H = (k.p) I - 2 p k^T over the frame's axis k and pole p."""
    k, p = frame.axis.coords, frame.pole.coords
    kp, zero = dot(k, p), frame.axis.field.zero()
    return tuple(tuple((kp if i == j else zero) - (p[i] * k[j] + p[i] * k[j]) for j in range(3))
                 for i in range(3))


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reflect_point_matches_harmonic_chain(field, data):
    frame, y = data.draw(frames_and_points(field))
    assert outcome(frame.reflect_point, y) == outcome(ref_reflect_point, frame, y)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_homology_is_an_exact_involution(field, data):
    frame, y = data.draw(frames_and_points(field))
    h = homology(frame)
    kp = dot(frame.axis.coords, frame.pole.coords)
    zero = field.zero()
    square = tuple(tuple(kp * kp if i == j else zero for j in range(3)) for i in range(3))
    assert matmul(h, h) == square
    if _same(y, frame.pole):
        with pytest.raises(DegenerateInputError, match="undefined at the pole"):
            frame.reflect_point(y)
        return
    image = frame.reflect_point(y)
    assert image == ProjPoint(matvec(h, y.coords), field)
    assert frame.reflect_point(image) == y
