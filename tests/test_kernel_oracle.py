"""Differential tests of the line and chord kernels against older routes.

The kernel reads cross-ratios and harmonic conjugates off single minors at
one slot of the spanning cross product, reflects points by the harmonic
homology H and lines by its transpose.  The reference implementations below
are the older chain that builds the axis with `join`, charts every point
with `line_chart` (kept in `generic_formulas.py`), reflects points through
`meet` and a charted conjugate, and reflects a line by joining the images of
two of its points.  Both must agree on the exact coordinates and scalars,
not just up to scale, and must raise the same exception with the same
message.  The reference tests coincidence
with the full cross product, so it does not share `_Triple.__eq__`.

`second_intersection` and `ConicParametrization` form their coordinates
with the kernel table's `combine`/`combine3` on raw vectors, the chart
computes its coefficient vectors on first use, and a Gaussian parameter with
denominators is cleared to Gaussian integers first.  Their references are
the older scalar formulas, computed eagerly on the unscaled parameter from
the chart lines that `chart_lines` rebuilds.

`ConicParametrization.partner` builds a chord's second endpoint as a chart
point.  Its reference is the chord solve it replaced in scenario
generation, `second_intersection` on the join of point(t) and m; the two
agree as points.  The partner's exact scale is pinned separately, on
m = point(s), where the kappa-normalised polar form is the square bracket
(t0*s1 - t1*s0)^2.

`ConicParametrization.chord_meet` meets two chords in the chart's Veronese
coordinates.  Its reference is the generic route the documents take, `meet`
of the two `join`s (the tangent where a chord's ends coincide); the two
agree as points and raise the same error for coincident chords.

`conic_through_five` takes the member through p5 of the pencil of two line
pairs through p1..p4.  Its reference is the Gauss-Jordan solve of the five
incidence equations it replaced; the two must give the same raw form, or
raise the same exception with the same message, on both backends.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conic_butterfly.conics import (Conic, ConicParametrization, DegenerateConicError,
                                   _second_point_on, conic_through_five, second_intersection,
                                   transform_conic)
from conic_butterfly.projective import (
    DegenerateInputError,
    ProjLine,
    ProjPoint,
    ProjectiveError,
    Projectivity,
    collinear,
    cross_ratio,
    harmonic_conjugate,
    incident,
    join,
    meet,
)
from conic_butterfly.reflection import ReflectionFrame
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenarios import (random_conic, random_reflection_frame, reference_base,
                                       reference_conic)
import generic_formulas as gf
from generic_formulas import chart_lines, cross, dot, line_chart, matmul, matvec, quad_form

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


def ref_reflect_line(frame, l):
    """The sampled construction: reflect two coordinate-frame points of l and
    join the images, cross-checked on a third point of l."""
    if incident(frame.pole, l):
        return l
    one, zero = l.field.one(), l.field.zero()
    samples = []
    for e in ((one, zero, zero), (zero, one, zero), (zero, zero, one)):
        c = cross(l.coords, e)
        if all(x.is_zero() for x in c):
            continue
        q = ProjPoint(c, l.field)
        if q not in samples:
            samples.append(q)
        if len(samples) == 2:
            break
    p1, p2 = samples
    out = join(ref_reflect_point(frame, p1), ref_reflect_point(frame, p2))
    p3 = ProjPoint(tuple(a + b for a, b in zip(p1.coords, p2.coords)), l.field)
    assert incident(ref_reflect_point(frame, p3), out)
    return out


def ref_second_intersection(conic, l, known):
    if not incident(known, l):
        raise ProjectiveError("known point must lie on the line")
    if not conic.contains(known):
        raise ProjectiveError("known point must lie on the conic")
    b = _second_point_on(l, known)
    q = quad_form(conic.form, b.coords)
    if q.is_zero():
        return b
    m = dot(known.coords, matvec(conic.form, b.coords))
    if m.is_zero():
        return known
    two = conic.field.one() + conic.field.one()
    coords = tuple(q * a - two * m * bc for a, bc in zip(known.coords, b.coords))
    return ProjPoint(coords, conic.field)


def ref_point_coefficients(par):
    """The eager coefficient build, on the scalar operators."""
    field = par.conic.field
    one, zero = field.one(), field.zero()
    j = next(i for i, c in enumerate(par.base.coords) if not c.is_zero())
    ej = tuple(one if i == j else zero for i in range(3))
    l1, l0 = chart_lines(par)
    d1 = cross(l1.coords, ej)
    d0 = cross(l0.coords, ej)
    b = par.base.coords
    two = one + one
    v1 = matvec(par.conic.form, d1)
    v0 = matvec(par.conic.form, d0)
    q2, q1, q0 = dot(d1, v1), two * dot(d0, v1), dot(d0, v0)
    m1, m0 = dot(b, v1), dot(b, v0)
    a2 = tuple(q2 * bc - two * m1 * dc for bc, dc in zip(b, d1))
    a1 = tuple(q1 * bc - two * (m1 * dc0 + m0 * dc1) for bc, dc0, dc1 in zip(b, d0, d1))
    a0 = tuple(q0 * bc - two * m0 * dc for bc, dc in zip(b, d0))
    flat = field.reduce_content(a2 + a1 + a0)
    return (flat[0:3], flat[3:6], flat[6:9])


def _pair(field, t):
    return ((field.coerce(t[0]), field.coerce(t[1])) if isinstance(t, tuple)
            else (field.coerce(t), field.one()))


def ref_chart_point(par, t):
    """The point map on the parameter as given."""
    field = par.conic.field
    t0, t1 = _pair(field, t)
    if t0.is_zero() and t1.is_zero():
        raise ProjectiveError("(0 : 0) is not a parameter")
    a2, a1, a0 = ref_point_coefficients(par)
    c22, c11, c00 = t0 * t0, t0 * t1, t1 * t1
    coords = tuple(c22 * x2 + c11 * x1 + c00 * x0 for x2, x1, x0 in zip(a2, a1, a0))
    return ProjPoint(coords, field)


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


def frames_and_lines(field):
    """A reflection frame with a line that is random, the axis, through the
    pole, or a coordinate line."""

    @st.composite
    def build(draw):
        frame, _par = random_reflection_frame(Random(draw(st.integers(0, 2**32))), field, 8)
        kind = draw(st.sampled_from(("free", "free", "axis", "pencil", "coordinate")))
        if kind == "axis":
            return frame, frame.axis
        if kind == "pencil":
            w = draw(points(field))
            assume(not _same(w, frame.pole))
            return frame, join(frame.pole, w)
        if kind == "coordinate":
            slot = draw(st.integers(0, 2))
            return frame, ProjLine(tuple(field.one() if i == slot else field.zero()
                                         for i in range(3)), field)
        return frame, ProjLine(draw(points(field)).coords, field)

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


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reflect_line_matches_sampled_construction(field, data):
    frame, l = data.draw(frames_and_lines(field))
    image = frame.reflect_line(l)
    assert image == ref_reflect_line(frame, l)
    assert frame.reflect_line(image) == l


# ----------------------------------------------------------------------
# chord kernels: second intersection and the chart's point map


def charts(field):
    """A chart on a random conic, or on the reference conic xz = y^2."""

    @st.composite
    def build(draw):
        seed = draw(st.integers(0, 2**32))
        if seed % 5 == 0:
            return ConicParametrization(reference_conic(field), reference_base(field))
        conic, base = random_conic(Random(seed), field, 8)
        return ConicParametrization(conic, base)

    return build()


def parameters(field):
    """A scalar, or a homogeneous pair whose entries may be zero (not both)."""
    pair = st.tuples(scalars(field), scalars(field)).filter(
        lambda p: not (p[0].is_zero() and p[1].is_zero()))
    return st.one_of(scalars(field), pair, st.just((field.one(), field.zero())),
                     st.just((field.zero(), field.one())))


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chart_point_matches_scalar_formula(field, data):
    par = data.draw(charts(field))
    assert par._coefficients is None  # nothing is computed before the first use
    t = data.draw(parameters(field))
    assert outcome(par.point, t) == outcome(ref_chart_point, par, t)
    assert par.point_coefficients() == ref_point_coefficients(par)
    eager = ConicParametrization(par.conic, par.base)
    eager.point_coefficients()
    assert outcome(eager.point, t) == outcome(par.point, t)


def test_chart_point_clears_denominators():
    """Parameters with denominators, as pairs too, give the coordinates of the
    unscaled formula exactly."""
    rng = Random(31)
    for _ in range(10):
        conic, base = random_conic(rng, G, 12)
        par = ConicParametrization(conic, base)
        for t in (G("3/7"), G("-5/2", "1/3"), (G("1/6"), G("4/9", "-2")), (G(2), G("0", "7/5")),
                  (G("2/3"), G(0)), (G(0), G("-1/8")), G.random(rng, 50)):
            assert outcome(par.point, t) == outcome(ref_chart_point, par, t)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
def test_chart_zero_vector_falls_back_to_the_chord_solve(field):
    """An exact chart never produces the zero vector (every chord line passes
    through the base, and the coordinate line e_j misses it), so the point map
    has no chord-solve fallback: hand-zeroed coefficient vectors trip its
    arithmetic-bug assertion instead."""
    par = ConicParametrization(reference_conic(field), reference_base(field))
    zero = field.zero()
    par._coefficients = (par.conic.kernels.pack((zero,) * 3),) * 3  # raw zero vectors
    ts = [field.from_int(3), (field.from_int(2), field.from_int(-5)), (field.one(), zero)]
    if field is G:
        ts.append((G("2/3"), G("-1/5", "1/2")))
    for t in ts:
        with pytest.raises(AssertionError, match="zero vector"):
            par.point(t)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_second_intersection_matches_scalar_formula(field, data):
    par = data.draw(charts(field))
    known = par.point(data.draw(parameters(field)))
    kind = data.draw(st.sampled_from(("chord", "chord", "tangent", "off-line", "off-conic")))
    w = data.draw(points(field))
    if kind == "tangent":
        l = par.conic.tangent_at(known)
    elif kind == "off-line":  # a line through the base that may miss `known`
        assume(not _same(w, par.base))
        l = join(w, par.base)
    else:
        assume(not _same(w, known))
        l = join(known, w)
        if kind == "off-conic":
            known = w
    assert outcome(second_intersection, par.conic, l, known) == \
        outcome(ref_second_intersection, par.conic, l, known)


# ----------------------------------------------------------------------
# chord partner: the chart's Frégier involution


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_partner_matches_second_intersection(field, data):
    """point(partner(t, m)) is the chord solve's second endpoint, for m random
    (often on a coordinate line), a combination of two chart points as the
    generators build it, a point of the conic, or a point of the tangent at
    point(t), where the partner is point(t) itself."""
    par = data.draw(charts(field))
    t = data.draw(parameters(field))
    end = par.point(t)
    kind = data.draw(st.sampled_from(("free", "free", "chart-combination", "on-conic", "tangent")))
    lam = data.draw(scalars(field))
    if kind == "free":
        m = data.draw(points(field))
    elif kind == "tangent":
        d = _second_point_on(par.conic.tangent_at(end), end)
        m = ProjPoint(tuple(x + lam * y for x, y in zip(d.coords, end.coords)), field)
    else:
        m = par.point(data.draw(parameters(field)))
        if kind == "chart-combination":
            b = par.point(data.draw(parameters(field)))
            coords = tuple(x + lam * y for x, y in zip(m.coords, b.coords))
            assume(not all(c.is_zero() for c in coords))
            m = ProjPoint(coords, field)
    assume(not _same(m, end))
    expected = second_intersection(par.conic, join(end, m), end)
    assert par.point(par.partner(t, m)) == expected
    if kind == "tangent":
        assert expected == end


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partner_exact_scale_on_conic_points(field, data):
    """With m = point(s), Q(t)/kappa is exactly (t0*s1 - t1*s0)^2 times m's
    content, so partner(t, m) is exactly 2*(s0*t1 - s1*t0)*(s0, s1) divided by
    that content.  This pins kappa^-1 itself, which the point comparison
    above cannot see (any common scale of alpha, beta, gamma gives the same
    point)."""
    par = data.draw(charts(field))
    t, s = data.draw(parameters(field)), data.draw(parameters(field))
    (t0, t1), (s0, s1) = _pair(field, t), _pair(field, s)
    bracket = s0 * t1 - s1 * t0
    assume(not bracket.is_zero())
    m = par.point(s)
    a2, a1, a0 = par.point_coefficients()
    raw = tuple(s0 * s0 * x2 + s0 * s1 * x1 + s1 * s1 * x0 for x2, x1, x0 in zip(a2, a1, a0))
    k = next(i for i, c in enumerate(m.coords) if not c.is_zero())
    content = raw[k] / m.coords[k]
    u0, u1 = par.partner(t, m)
    two = field.one() + field.one()
    assert (u0 * content, u1 * content) == (two * bracket * s0, two * bracket * s1)


# ----------------------------------------------------------------------
# chord meets in the chart's Veronese coordinates


def ref_chord(par, t, s):
    """The join of point(t) and point(s), or the tangent there when they coincide."""
    p, q = par.point(t), par.point(s)
    return par.conic.tangent_at(p) if p == q else join(p, q)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chord_meet_matches_meet_of_joins(field, data):
    """The four parameters come from a pool of two to four, so tangents
    (t = s), chords sharing an endpoint and coincident chords all occur."""
    par = data.draw(charts(field))
    pool = data.draw(st.lists(parameters(field), min_size=2, max_size=4))
    t, s, u, w = (data.draw(st.sampled_from(pool)) for _ in range(4))
    expected = outcome(lambda: meet(ref_chord(par, t, s), ref_chord(par, u, w)))
    got = outcome(par.chord_meet, t, s, u, w)
    if expected[0] == "point":
        assert got[0] == "point"
        assert ProjPoint(got[1], field) == ProjPoint(expected[1], field)
    else:
        assert got == expected


# ----------------------------------------------------------------------
# the conic through five points against the Gauss-Jordan solve


def ref_nullspace(rows, width, field):
    """Basis of the right kernel of the rows, by Gauss-Jordan elimination;
    each basis vector is 1 at its free column and 0 after it."""
    work = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(work)) if not work[i][col].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][col].inv()
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][col].is_zero():
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(work):
            break
    basis = []
    for free in (c for c in range(width) if c not in pivot_cols):
        vec = [field.zero()] * width
        vec[free] = field.one()
        for row_idx, col in enumerate(pivot_cols):
            vec[col] = -work[row_idx][free]
        basis.append(tuple(vec))
    return basis


def ref_conic_through_five(points):
    points = tuple(points)
    if len(points) != 5:
        raise ProjectiveError("expected exactly 5 points")
    field = points[0].field
    for i, j in combinations(range(5), 2):
        if _same(points[i], points[j]):
            raise DegenerateInputError("coincident points cannot pin down a conic")
    rows = [(x * x, y * y, z * z, x * y, x * z, y * z) for x, y, z in (p.coords for p in points)]
    kernel = ref_nullspace(rows, 6, field)
    if len(kernel) != 1:
        raise DegenerateInputError(f"five-point system has kernel dimension {len(kernel)}, need 1")
    a, b, c, d, e, f = kernel[0]
    half = (field.one() + field.one()).inv()
    return Conic(((a, d * half, e * half), (d * half, b, f * half), (e * half, f * half, c)), field)


def five_point_outcome(build, points):
    """The raw form built, or the exception type, message and witness."""
    try:
        return ("conic", build(points).raw)
    except DegenerateConicError as exc:
        return ("raised", type(exc), str(exc), exc.witness)
    except ProjectiveError as exc:
        return ("raised", type(exc), str(exc))


@st.composite
def quintuples(draw, field):
    """Five points of a random conic (some may coincide), five random points,
    or random points of which three, four or all five are collinear, in
    random order."""
    kind = draw(st.sampled_from(("conic", "conic", "free", 3, 4, 5)))
    if kind == "conic":
        par = draw(charts(field))
        return [par.point(draw(parameters(field))) for _ in range(5)]
    pts = [draw(points(field)) for _ in range(5)]
    if kind != "free":
        u, v = pts[0], pts[1]
        assume(not _same(u, v))
        for i in range(2, kind):
            a, b = draw(scalars(field)), draw(scalars(field))
            coords = tuple(a * x + b * y for x, y in zip(u.coords, v.coords))
            assume(not all(c.is_zero() for c in coords))
            pts[i] = ProjPoint(coords, field)
    return draw(st.permutations(pts))


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_conic_through_five_matches_gauss_jordan(field, data):
    pts = data.draw(quintuples(field))
    assert five_point_outcome(conic_through_five, pts) == \
        five_point_outcome(ref_conic_through_five, pts)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
def test_conic_through_five_named_failures(field):
    """Each failure the Gauss-Jordan solve names, with its message."""
    def pt(*c):
        return ProjPoint(tuple(map(field.from_int, c)), field)

    line = [pt(t, 1, 0) for t in range(5)]
    off = pt(0, 0, 1)
    cases = {
        "coincident points cannot pin down a conic": [pt(1, 2, 3)] * 2 + line[:3],
        "five-point system has kernel dimension 3, need 1": line,
        "five-point system has kernel dimension 2, need 1": line[:4] + [off],
        "degenerate conic (zero determinant)": line[:3] + [off, pt(1, 1, 1)],
    }
    for message, pts in cases.items():
        for order in (pts, pts[::-1]):
            got = five_point_outcome(conic_through_five, order)
            assert got == five_point_outcome(ref_conic_through_five, order)
            assert got[0] == "raised" and got[2] == message


# ----------------------------------------------------------------------
# kernel tables against the generic scalar formulas of generic_formulas.py
#
# Every kernel of both tables computes on raw tuples; unpacked, its result
# must be exactly the generic formula's value on the unpacked inputs.  Raw
# Gaussian parts come from three size tiers, small first, so a failing
# property shrinks into the small tier early while examples still draw
# parts of 10^40 and more.

_TIERED = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6),
                    st.integers(10**40, 10**45), st.integers(-10**45, -10**40))
_RESIDUES = st.one_of(st.sampled_from((0, 1, P.MODULUS - 1)), st.integers(0, 2**20),
                      st.integers(0, P.MODULUS - 1))


def raw_scalars(field):
    if field is G:
        return st.tuples(_TIERED, _TIERED)
    return _RESIDUES


@st.composite
def raw_vectors(draw, field, zero_entries=True):
    """A raw vector, its entries often zeroed (the zero vector included)."""
    entries = [draw(raw_scalars(field)) for _ in range(3)]
    if zero_entries:
        for slot in draw(st.sets(st.integers(0, 2))):
            entries[slot] = (0, 0) if field is G else 0
    return sum(entries, ()) if field is G else tuple(entries)


@st.composite
def raw_vector_pairs(draw, field):
    """(u, v) with v often a raw multiple of u, so proportional pairs occur."""
    k = field.kernels
    u = draw(raw_vectors(field))
    if draw(st.booleans()):
        return u, draw(raw_vectors(field))
    lam = k.scalar(draw(raw_scalars(field)))
    return u, k.pack(tuple(lam * c for c in k.unpack(u)))


def _lead_ref(scalars_):
    return next((i for i, c in enumerate(scalars_) if not c.is_zero()), None)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_vector_kernels_match_generic_formulas(field, data):
    k = field.kernels
    u, v = data.draw(raw_vector_pairs(field))
    w = data.draw(raw_vectors(field))
    a, b, c = (data.draw(raw_scalars(field)) for _ in range(3))
    U, V, W = k.unpack(u), k.unpack(v), k.unpack(w)
    A, B, C = k.scalar(a), k.scalar(b), k.scalar(c)
    assert k.unpack(k.cross(u, v)) == cross(U, V)
    assert k.scalar(k.dot(u, v)) == dot(U, V)
    for slot in range(3):
        assert k.scalar(k.minor(u, v, slot)) == gf.minor(U, V, slot)
    m = k.first_nonzero_minor(u, v)
    assert (m if m is None else k.scalar(m)) == gf.first_nonzero_minor(U, V)
    assert k.unpack(k.combine(a, u, b, v)) == gf.combine(A, U, B, V)
    assert k.unpack(k.combine3(a, u, b, v, c, w)) == gf.combine3(A, U, B, V, C, W)
    rows = (u, v, w)
    assert k.unpack(k.matvec(rows, v)) == matvec((U, V, W), V)
    assert k.scalar(k.quad_form(rows, w)) == quad_form((U, V, W), W)
    assert k.lead(u) == _lead_ref(U)
    if any(u):
        assert k.normalize(u) == gf.normalize(U)
        assert k.proportional(u, v) is gf.proportional(U, V)
        assert k.proportional(u + v, v + u) is gf.proportional(U + V, V + U)
    else:
        assert all(x.is_zero() for x in U)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_scalar_kernels_match_scalar_operators(field, data):
    k = field.kernels
    x, y = data.draw(raw_scalars(field)), data.draw(raw_scalars(field))
    X, Y = k.scalar(x), k.scalar(y)
    assert k.is_zero(x) is X.is_zero()
    assert k.scalar(k.add(x, y)) == X + Y
    assert k.scalar(k.mul(x, y)) == X * Y
    assert k.scalar(k.neg(x)) == -X


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_edge_wraps_to_canonical_scalars(field, data):
    """unpack/scalar build canonical scalars; reduce_content divides out
    exactly the rational content; pack and param clear denominators by a
    positive integer and keep the ratio; units are the coordinate vectors;
    real says whether every entry is real."""
    k = field.kernels
    v = data.draw(raw_vectors(field))
    scalars_ = k.unpack(v)
    if field is G:
        assert scalars_ == tuple(G(v[i], v[i + 1]) for i in range(0, 6, 2))
        assert all(str(G.parse(str(c))) == str(c) and c.d == 1 for c in scalars_)
        r = k.reduce_content(v)
        g = gcd(*v)
        assert r == v if g <= 1 else (gcd(*r) == 1 and tuple(g * x for x in r) == v)
    else:
        assert scalars_ == tuple(P(x) for x in v)
        assert k.reduce_content(v) == v
    assert k.pack(scalars_) == v
    given_ = tuple(data.draw(scalars(field)) for _ in range(3))
    den = lcm(*(c.d for c in given_)) if field is G else 1
    assert k.unpack(k.pack(given_)) == tuple(c * field.from_int(den) for c in given_)
    t0, t1 = given_[:2]
    p0, p1 = k.param(t0, t1)
    assert k.scalar(p0) * t1 == k.scalar(p1) * t0
    assert tuple(k.unpack(e) for e in k.units) == (
        (field.one(), field.zero(), field.zero()), (field.zero(), field.one(), field.zero()),
        (field.zero(), field.zero(), field.one()))
    assert k.real(v) == all(c.is_real() for c in scalars_)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@pytest.mark.parametrize("real", (False, True), ids=("complex", "real"))
def test_table_random_is_the_packed_scalar_draws(field, real):
    """The vector draw packs the backend's scalar draws and leaves the rng
    exactly where those draws leave it."""
    for seed in range(20):
        ours, theirs = Random(seed), Random(seed)
        for n in (1, 3, 9):
            raw = field.kernels.random(ours, 7, n, real)
            assert raw == field.kernels.pack(tuple(field.random(theirs, 7, real=real)
                                                   for _ in range(n)))
        assert ours.getstate() == theirs.getstate()


# ----------------------------------------------------------------------
# mixed backends: no kernel looks at types, so each public construction
# must refuse a mix before its kernels run


def _backend_objects(field):
    conic = reference_conic(field)
    par = ConicParametrization(conic, reference_base(field))
    on = par.point(field.from_int(2))
    p = ProjPoint((1, 2, 3), field)
    q = ProjPoint((2, -1, 5), field)
    line = join(p, q)
    axis = ProjLine((1, 1, 1), field)
    return {
        "p": p, "q": q, "r": ProjPoint(tuple(x + y for x, y in zip(p.coords, q.coords)), field),
        "s": ProjPoint(tuple(x - y for x, y in zip(p.coords, q.coords)), field),
        "l": line, "m": ProjLine((0, 1, 4), field), "conic": conic, "par": par, "on": on,
        "chord": join(on, p), "t": field.from_int(3), "u": field.from_int(-1),
        "v": field.from_int(5), "w": field.from_int(7), "axis": axis,
        **{f"c{i}": par.point(field.from_int(i)) for i in range(5)},
        "frame": ReflectionFrame(conic, axis),
        "map": Projectivity(((1, 2, 0), (0, 1, 3), (1, 0, 1)), field),
    }


_OBJECTS = {field: _backend_objects(field) for field in FIELDS}
MIXED = {
    "join": (join, "p", "q"),
    "meet": (meet, "l", "m"),
    "incident": (incident, "p", "l"),
    "collinear": (collinear, "p", "q", "r"),
    "cross_ratio": (cross_ratio, "p", "q", "r", "s"),
    "harmonic_conjugate": (harmonic_conjugate, "p", "q", "r"),
    "Conic.contains": (Conic.contains, "conic", "on"),
    "Conic.polar": (Conic.polar, "conic", "p"),
    "Conic.pole": (Conic.pole, "conic", "l"),
    "Conic ==": (Conic.__eq__, "conic", "conic"),
    "conic_through_five": (lambda *pts: conic_through_five(pts), "c0", "c1", "c2", "c3", "c4"),
    "second_intersection": (second_intersection, "conic", "chord", "on"),
    "ConicParametrization.point": (ConicParametrization.point, "par", "t"),
    "ConicParametrization.chord_meet": (ConicParametrization.chord_meet, "par", "t", "u", "v", "w"),
    "ConicParametrization.partner": (ConicParametrization.partner, "par", "t", "p"),
    "Projectivity.apply": (Projectivity.apply, "map", "p"),
    "Projectivity.apply_line": (Projectivity.apply_line, "map", "l"),
    "Projectivity ==": (Projectivity.__eq__, "map", "map"),
    "transform_conic": (transform_conic, "map", "conic"),
    "ReflectionFrame": (ReflectionFrame, "conic", "axis"),
    "reflect_point": (ReflectionFrame.reflect_point, "frame", "p"),
    "reflect_line": (ReflectionFrame.reflect_line, "frame", "l"),
}


@pytest.mark.parametrize("first", FIELDS, ids=("gauss-first", "prime-first"))
@pytest.mark.parametrize("name", list(MIXED))
def test_mixed_backends_raise_type_error(name, first):
    """The first argument from one backend, the others from the other."""
    fn, head, *rest = MIXED[name]
    other = P if first is G else G
    fn(*(_OBJECTS[first][a] for a in (head, *rest)))  # the unmixed call runs
    with pytest.raises(TypeError):
        fn(_OBJECTS[first][head], *(_OBJECTS[other][a] for a in rest))
