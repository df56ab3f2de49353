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
computes its coefficient vectors when built, and a Gaussian parameter with
denominators is cleared to Gaussian integers first.  Their references are
the older scalar formulas, computed eagerly on the unscaled parameter from
the chart lines that `chart_lines` rebuilds.

The chart's vectors come from the kernel table's `chart`, which writes each
cross product with a coordinate vector as moves and negations, one branch
per slot.  Its reference is the generic construction over the table's
primitive entries (`generic_formulas.chart`), and the two must give the
same raw vectors.  Charts on images of xz = y^2 under sparse maps moved by
coordinate permutations put the base's and the tangent's first nonzero
slots in every position, so every branch is compared.

`ConicParametrization._partner` builds a chord's second endpoint as a raw
chart parameter, from the chart coordinates w of m = S*w.  Its reference is
the chord solve it replaced in scenario generation, `second_intersection`
on the join of point(t) and m; the two agree as points, with w = adj(S)*m
for an arbitrary m.  The partner's exact scale is pinned separately:
`ref_partner`, the older scalar formula from M*m and the exact kappa^-1, is
checked against the square bracket (t0*s1 - t1*s0)^2 on m = point(s), and
the raw partner equals `ref_partner` scaled to coprime Gaussian integers
there and on m built as the generators build it, from two chart points and
their contents.

`random_conic` builds the image of the reference conic in closed form, by
the kernel table's `reference_image`, with the two nonzero entries of its
form folded in.  Its references are the generic closed form over the
table's primitive entries (`generic_formulas.reference_image`), which must
give the same raw output, and `transform_conic` and `Projectivity.apply`
on the reference conic and base, which must give the same raw form and
base.  The real-plane (cutl) form divides the raw form by
its lead entry; its reference is the round trip through the affine
coefficients (`affine_spec_from_conic`, kept in `generic_formulas.py`, and
`homogenize_affine_conic`), with the same raw form or the same error.

`ConicParametrization._chord_meet` meets two chords in the chart's Veronese
coordinates.  Its reference is the generic route the documents take, `meet`
of the two `join`s (the tangent where a chord's ends coincide); the two
agree as points and raise the same error for coincident chords.

`random_hexagon` draws raw parameter pairs, dedupes them in a set and
evaluates them with the raw point map.  Its reference is the older loop
over scalar parameters and the public `point`; the two must give the same
raw points, spend the same retries and leave the rng in the same state.

`conic_through_five` takes the member through p5 of the pencil of two line
pairs through p1..p4.  Its reference is the Gauss-Jordan solve of the five
incidence equations it replaced; the two must give the same raw form, or
raise the same exception with the same message, on both backends.

The kernel tables' text codec prints and reads raw vectors with no scalar
objects.  Its reference is the scalar route it replaced: `text` against
`normalize`'s scalars printed by their own `str` (and by Fractions, which
share no formatting code with the package), `parse` against the scalar
`parse`, `pack` and `reduce_content`, and a cross-ratio's text against
`str(num / den)`.  Gaussian vectors with a real lead of either sign, which
`text` divides by directly, are drawn as well.  A harmonic cross-ratio
prints from (1 : -1); its reference is the text of its own scaled pair.
Malformed literals must raise the same exception with the same message.  A
point, line or cross-ratio keeps its text after the first `str`, so each
object must print its own text, every time, and equal objects built by
different routes must print the same text.  A parsed point or line also
keeps its input text when that text is what `str` prints, so whatever the
spelling, it must print what an object built afresh from its raw vector
prints, and parsing printed text must keep it without a `text` call and
without `reduce_content`, with the raw vector the constructor builds.
"""

import re
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import gcd, lcm
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conic_butterfly.conics import (Conic, ConicParametrization, DegenerateConicError,
                                   _second_point_on, conic_through_five, homogenize_affine_conic,
                                   second_intersection, transform_conic)
from conic_butterfly.projective import (
    CrossRatioValue,
    DegenerateInputError,
    ProjLine,
    ProjPoint,
    ProjectiveError,
    Projectivity,
    collinearity_residual,
    cross_ratio,
    harmonic_conjugate,
    incident,
    join,
    meet,
)
from conic_butterfly.reflection import ReflectionFrame
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenarios import (RetryBudget, _chord_point, _point_along, _real_plane_form,
                                       _reference_image, _same_parameter, random_conic,
                                       random_hexagon, random_reflection_frame, reference_conic)
import generic_formulas as gf
from generic_formulas import (chart_lines, cross, dot, line_chart, matmul, matvec, quad_form,
                              reference_base)

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
    flat = gf.reduce_content(a2 + a1 + a0)
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

# Each strategy factory below is cached per argument, so a property builds
# (and Hypothesis validates) each field's strategies once, not on every draw.


@cache
def scalars(field):
    if field is G:
        return st.one_of(
            _SMALL.map(G),
            st.builds(lambda a, b, d, e: G(Fraction(a, d), Fraction(b, e)),
                      st.integers(-10**12, 10**12), st.integers(-10**12, 10**12),
                      st.integers(1, 50), st.integers(1, 50)),
        )
    return st.one_of(_SMALL.map(P), st.integers(0, P.MODULUS - 1).map(P))


@cache
def points(field):
    """Random points, often on a coordinate line, where some minors vanish."""
    triples = st.tuples(*(scalars(field),) * 3)
    zeroed = st.sets(st.integers(0, 2), max_size=2)

    @st.composite
    def build(draw):
        coords = list(draw(triples))
        for slot in draw(zeroed):
            coords[slot] = field.zero()
        assume(not all(c.is_zero() for c in coords))
        return ProjPoint(tuple(coords), field)

    return build()


@cache
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


@cache
def frames_and_points(field):
    """A reflection frame with a point that is random, the pole (rescaled),
    on the axis, or on a line through the pole."""

    @st.composite
    def build(draw):
        frame, _base = random_reflection_frame(Random(draw(st.integers(0, 2**32))), field, 8)
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


@cache
def frames_and_lines(field):
    """A reflection frame with a line that is random, the axis, through the
    pole, or a coordinate line."""

    @st.composite
    def build(draw):
        frame, _base = random_reflection_frame(Random(draw(st.integers(0, 2**32))), field, 8)
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
        return ProjPoint(tuple(field(x) for x in c), field)

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


def permuted_image(t, perm):
    """The image of the reference conic and base under t followed by the
    coordinate permutation that takes row i of t to row perm[i]."""
    return _reference_image(Projectivity(sum((t.raw[i] for i in perm), ()), t.kernels))


# mostly zeros: maps whose images of xz = y^2 have bases and tangents with leading zeros
_SPARSE = st.sampled_from((0, 0, 0, 1, -1, 2, -3))


@cache
def sparse_charts(field):
    """A chart on the image of xz = y^2 under a sparse map moved by a
    coordinate permutation, so the base's and the tangent's first nonzero
    slots fall in every position."""

    @st.composite
    def build(draw):
        rows = draw(st.tuples(*(st.tuples(_SPARSE, _SPARSE, _SPARSE),) * 3))
        try:
            t = Projectivity(rows, field)
        except DegenerateInputError:
            assume(False)
        return ConicParametrization(*permuted_image(t, draw(st.permutations(range(3)))))

    return build()


@cache
def charts(field):
    """A chart on a random conic, on the reference conic xz = y^2, or a
    sparse chart."""

    @st.composite
    def build(draw):
        seed = draw(st.integers(0, 2**32))
        if seed % 5 == 0:
            return ConicParametrization(reference_conic(field), reference_base(field))
        if seed % 5 == 1:
            return draw(sparse_charts(field))
        conic, base = random_conic(Random(seed), field, 8)
        return ConicParametrization(conic, base)

    return build()


@cache
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
    t = data.draw(parameters(field))
    assert outcome(par.point, t) == outcome(ref_chart_point, par, t)
    assert par.point_coefficients() == ref_point_coefficients(par)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chart_entry_matches_generic_construction(field, data):
    par = data.draw(st.one_of(charts(field), sparse_charts(field)))
    k = par.conic.kernels
    assert k.chart(par.conic.raw, par.base.raw) == gf.chart(k, par.conic.raw, par.base.raw)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
def test_chart_entry_reaches_every_slot(field):
    """Images of xz = y^2 under small-entry maps with plenty of zeros, each
    moved by the six coordinate permutations: the base's and the tangent's
    first nonzero slots take every value, and on each chart the table's
    entry equals the generic construction, so every branch of its
    coordinate-vector cross products is compared."""
    k = field.kernels
    rng = Random(5)
    leads = set()
    for _ in range(40):
        try:
            t = Projectivity([[field(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)], field)
        except DegenerateInputError:
            continue
        for perm in permutations(range(3)):
            conic, base = permuted_image(t, perm)
            assert k.chart(conic.raw, base.raw) == gf.chart(k, conic.raw, base.raw)
            leads.add((k.lead(base.raw), k.lead(k.matvec(conic.raw, base.raw))))
    assert {b for b, _ in leads} == {l for _, l in leads} == {0, 1, 2}


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
    ts = [field(3), (field(2), field(-5)), (field.one(), zero)]
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


def ref_partner(par, t, m):
    """The older scalar partner of a scalar parameter: alpha, beta and gamma
    scaled by the exact kappa^-1, and the polar form's root at t."""
    t0, t1 = _pair(par.conic.field, t)
    a2, _, a0 = par.point_coefficients()
    c = dot(a2, matvec(par.conic.form, a0)).inv()
    w = matvec(par.conic.form, m.coords)
    alpha, beta, gamma = (dot(a, w) * c for a in par.point_coefficients())
    return (beta * t0 + (gamma + gamma) * t1, -((alpha + alpha) * t0 + beta * t1))


def chart_coordinates(par, m):
    """adj(S)*m as a raw vector, for S the matrix of columns (A2, A1, A0): the
    chart coordinates w of m up to the scale det(S), as S*adj(S) = det(S)*I."""
    a2, a1, a0 = par.point_coefficients()
    w = tuple(dot(cross(x, y), m.coords) for x, y in ((a1, a0), (a0, a2), (a2, a1)))
    return par.conic.kernels.pack(w)


def chart_end(par, t):
    """A chart point as `random_scenario` draws it: (raw pair, point, content)."""
    k = par.conic.kernels
    coords = par._coords(t)
    point = ProjPoint(coords, k)
    return t, point, k.content(coords, point.raw)


def generator_chord_point(par, data):
    """m = a + lam*b on a chord of two chart points, with the chart
    coordinates `_chord_point` gives it, as the damn, cutl and sack
    generators build them; also checks m against `_point_along` and the
    contents against the points."""
    field, k = par.conic.field, par.conic.kernels
    ta, tb = (par._as_pair(data.draw(parameters(field))) for _ in range(2))
    assume(not _same_parameter(k, ta, tb))
    end_a, end_b = chart_end(par, ta), chart_end(par, tb)
    for t, point, g in (end_a, end_b):
        assert ProjPoint(par._coords(t), k).raw == point.raw
        assert tuple(k.mul(g, x) for x in k.entries(point.raw)) == k.entries(par._coords(t))
    lam = data.draw(scalars(field))
    m, w = _chord_point(end_a, lam, end_b)
    assert m.raw == _point_along(end_a[1], lam, end_b[1]).raw
    return m, w


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_partner_matches_second_intersection(field, data):
    """point(partner(t, w)) is the chord solve's second endpoint, for m random
    (often on a coordinate line), a combination of two chart points as the
    generators build it, a point of the conic, or a point of the tangent at
    point(t), where the partner is point(t) itself.  Only the generators'
    combination comes with its chart coordinates; the others pass
    w = adj(S)*m, which is m's up to the scale det(S)."""
    par = data.draw(charts(field))
    t = data.draw(parameters(field))
    end = par.point(t)
    kind = data.draw(st.sampled_from(("free", "free", "chart-combination", "on-conic", "tangent")))
    lam = data.draw(scalars(field))
    w = None
    if kind == "free":
        m = data.draw(points(field))
    elif kind == "tangent":
        d = _second_point_on(par.conic.tangent_at(end), end)
        m = ProjPoint(tuple(x + lam * y for x, y in zip(d.coords, end.coords)), field)
    elif kind == "on-conic":
        m = par.point(data.draw(parameters(field)))
    else:
        m, w = generator_chord_point(par, data)
    assume(not _same(m, end))
    if w is None:
        w = chart_coordinates(par, m)
    expected = second_intersection(par.conic, join(end, m), end)
    assert par._point(par._partner(par._as_pair(t), w)) == expected
    if kind == "tangent":
        assert expected == end


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_partner_matches_kappa_formula_on_generator_points(field, data):
    """On m built as the generators build it, contents included, the raw
    partner from m's chart coordinates is the older formula's pair from M*m
    and the exact kappa^-1: scaled to coprime Gaussian integers, and exactly
    that pair on the prime field, where nothing is content-reduced."""
    par = data.draw(charts(field))
    t = data.draw(parameters(field))
    m, w = generator_chord_point(par, data)
    raw = par._partner(par._as_pair(t), w)
    assert tuple(map(field.kernels.scalar, raw)) == gf.reduce_content(ref_partner(par, t, m))


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partner_exact_scale_on_conic_points(field, data):
    """With m = point(s), Q(t)/kappa is exactly (t0*s1 - t1*s0)^2 times m's
    content, so ref_partner(t, m) is exactly 2*(s0*t1 - s1*t0)*(s0, s1)
    divided by that content.  m's chart coordinates are v(s), and the raw
    partner of the raw pair of t is that pair scaled by the positive rational
    that makes it coprime Gaussian integers, and exactly that pair on the
    prime field.  This pins the Veronese identity S^T*M*S = kappa*G0 itself,
    which the point comparison above cannot see (any common scale of alpha,
    beta, gamma gives the same point)."""
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
    u0, u1 = ref_partner(par, t, m)
    two = field.one() + field.one()
    assert (u0 * content, u1 * content) == (two * bracket * s0, two * bracket * s1)
    kern = field.kernels
    p0, p1 = par._as_pair(s)
    v = kern.vector(kern.mul(p0, p0), kern.mul(p0, p1), kern.mul(p1, p1))
    raw = par._partner(par._as_pair(t), v)
    assert tuple(map(kern.scalar, raw)) == gf.reduce_content((u0, u1))


# ----------------------------------------------------------------------
# the generated conic: the reference image and the real-plane form


@cache
@st.composite
def projectivities(draw, field, real=False):
    """A random invertible map: from small entries with plenty of zeros, or
    drawn by `Projectivity.random` at height 50."""
    if draw(st.booleans()):
        return Projectivity.random(Random(draw(st.integers(0, 2**32))), field, 50, real=real)
    entries = st.integers(-3, 3).map(field) if real else scalars(field)
    rows = draw(st.tuples(*(st.tuples(entries, entries, entries),) * 3))
    try:
        return Projectivity(rows, field)
    except DegenerateInputError:
        assume(False)


@pytest.mark.parametrize("real", (False, True), ids=("complex", "real"))
@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reference_image_matches_transform(field, real, data):
    t = data.draw(projectivities(field, real))
    k = t.kernels
    assert k.reference_image(t.raw) == gf.reference_image(k, t.raw)
    conic, base = _reference_image(t)
    assert conic.raw == transform_conic(t, reference_conic(field)).raw
    assert base.raw == t.apply(reference_base(field)).raw


def ref_real_plane_form(conic):
    return homogenize_affine_conic(gf.affine_spec_from_conic(conic), conic.field)


def raw_outcome(fn, *args):
    """A conic's raw form, or the exception type and message."""
    try:
        return fn(*args).raw
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_real_plane_form_matches_affine_round_trip(field, data):
    """On images of the reference conic under real and complex maps, the
    real ones scaled by a random scalar (so a real conic may have a complex
    raw form or a negative lead)."""
    t = data.draw(projectivities(field, real=data.draw(st.booleans())))
    conic = transform_conic(t, reference_conic(field))
    c = data.draw(scalars(field).filter(lambda x: not x.is_zero()))
    conic = Conic(tuple(tuple(c * x for x in row) for row in conic.form), field)
    assert raw_outcome(_real_plane_form, conic) == raw_outcome(ref_real_plane_form, conic)


def test_real_plane_form_reports_complex_conics():
    conic = Conic.from_upper_entries((1, 0, 0, "1i", 0, -1), G)
    assert raw_outcome(_real_plane_form, conic) == (
        "raised", ProjectiveError, "conic is not real; no affine coefficients exist")
    assert raw_outcome(_real_plane_form, conic) == raw_outcome(ref_real_plane_form, conic)


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
    got = outcome(lambda *ts: par._chord_meet(*map(par._as_pair, ts)), t, s, u, w)
    if expected[0] == "point":
        assert got[0] == "point"
        assert ProjPoint(got[1], field) == ProjPoint(expected[1], field)
    else:
        assert got == expected


# ----------------------------------------------------------------------
# hexagons drawn on raw parameter pairs


def ref_random_hexagon(rng, field, height_bound, budget):
    """The older hexagon draw: scalar parameters deduped in a set, each
    evaluated through the public `point`."""
    conic, base = random_conic(rng, field, height_bound, budget=budget)
    par = ConicParametrization(conic, base)
    seen = set()
    points = []
    while len(points) < 6:
        t = field.random(rng, height_bound)
        if t in seen:
            budget.tick("conic point collision")
            continue
        seen.add(t)
        points.append(par.point(t))
    return conic, tuple(points)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@pytest.mark.parametrize("height", (1, 2, 10, 50))
def test_random_hexagon_matches_scalar_draws(field, height):
    """Same raw conic and points, same retries, same rng state, over 200
    seeds; at height 1 on gauss the draws collide often."""
    for seed in range(200):
        ours, theirs = Random(seed), Random(seed)
        spent, ref_spent = RetryBudget(), RetryBudget()
        conic, hexagon = random_hexagon(ours, field, height, budget=spent)
        ref_conic, ref_hexagon = ref_random_hexagon(theirs, field, height, ref_spent)
        assert conic.raw == ref_conic.raw
        assert [p.raw for p in hexagon] == [p.raw for p in ref_hexagon]
        assert spent.spent == ref_spent.spent
        assert ours.getstate() == theirs.getstate()


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


@cache
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
        return ProjPoint(tuple(map(field, c)), field)

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


@cache
def raw_scalars(field):
    if field is G:
        return st.tuples(_TIERED, _TIERED)
    return _RESIDUES


@cache
@st.composite
def raw_vectors(draw, field, zero_entries=True):
    """A raw vector, its entries often zeroed (the zero vector included)."""
    entries = [draw(raw_scalars(field)) for _ in range(3)]
    if zero_entries:
        for slot in draw(st.sets(st.integers(0, 2))):
            entries[slot] = (0, 0) if field is G else 0
    return sum(entries, ()) if field is G else tuple(entries)


@cache
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
    else:
        assert all(x.is_zero() for x in U)


@cache
@st.composite
def conics(draw, field):
    """A nondegenerate conic from six drawn upper entries."""
    try:
        return Conic.from_upper_entries(draw(st.tuples(*(scalars(field),) * 6)), field)
    except DegenerateConicError:
        assume(False)


def _rows(m) -> list:
    """The entries of a conic or projectivity as lists of rows."""
    return [list(r) for r in (m.form if isinstance(m, Conic) else m.matrix)]


@pytest.mark.parametrize("kind", ("Conic", "Projectivity"))
@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matrix_equality_is_proportionality(field, kind, data):
    """`==` on conics and projectivities is equality up to a nonzero scale:
    a copy with every entry times c (complex on gauss) is equal and hashes
    alike, and a copy with one entry changed (both symmetric slots of a
    conic) is equal exactly when the generic formula finds the entries
    proportional."""
    m = data.draw(conics(field) if kind == "Conic" else projectivities(field))
    nonzero = scalars(field).filter(lambda x: not x.is_zero())
    c = data.draw(nonzero)
    scaled = type(m)([[c * x for x in r] for r in _rows(m)], field)
    assert scaled == m and hash(scaled) == hash(m)
    rows = _rows(m)
    i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    rows[i][j] += data.draw(nonzero)
    if kind == "Conic":
        rows[j][i] = rows[i][j]
    try:
        changed = type(m)(rows, field)
    except (DegenerateConicError, DegenerateInputError):
        assume(False)
    assert (changed == m) is gf.proportional(sum(_rows(m), []), sum(_rows(changed), []))


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
        if any(v):
            assert k.content(v, r) == (g, 0)
    else:
        assert scalars_ == tuple(P(x) for x in v)
        assert k.reduce_content(v) == v
        assert k.content(v, v) == 1
    assert k.pack(scalars_) == v
    given_ = tuple(data.draw(scalars(field)) for _ in range(3))
    den = lcm(*(c.d for c in given_)) if field is G else 1
    assert k.unpack(k.pack(given_)) == tuple(c * field(den) for c in given_)
    t0, t1 = given_[:2]
    p0, p1 = k.param(t0, t1)
    assert k.scalar(p0) * t1 == k.scalar(p1) * t0
    assert (p0, p1) == _split_pair(k.pack((t0, t1)), field)
    assert tuple(k.unpack(e) for e in k.units) == (
        (field.one(), field.zero(), field.zero()), (field.zero(), field.one(), field.zero()),
        (field.zero(), field.zero(), field.one()))
    assert k.real(v) == all(c.is_real() for c in scalars_)


def _split_pair(packed, field):
    """A packed pair of scalars as its two raw scalars."""
    return (packed[:2], packed[2:]) if field is G else packed


@pytest.mark.parametrize("t0,t1", [
    ("1/6+5/6i", "7/6"), ("3/4", "-1/4i"),  # equal denominators
    ("1/3", "2/5"), ("5/8-1/9i", "-7/10+3/11i"), ("2", "-5/3"),  # coprime denominators
    ("0", "3/4i"), ("5/8-1/8i", "0"), ("1/4i", "-3/10"), ("2", "-7"),  # zero parts
    ("1/6", "1/4"), ("1/12+1/8i", "5/18i")])  # shared factors
def test_gauss_param_is_the_packed_pair(t0, t1):
    """param clears the two denominators exactly as pack does for the pair;
    on the prime field both are the residues, as the property above checks."""
    k = G.kernels
    t0, t1 = G.parse(t0), G.parse(t1)
    assert k.param(t0, t1) == _split_pair(k.pack((t0, t1)), G)
    assert k.param(t1, t0) == _split_pair(k.pack((t1, t0)), G)


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_lead_on_flat_matrices(field, data):
    """lead on a matrix's three raw rows laid flat (18 ints on gauss, 9
    residues on prime), whose first rows are often zero: the index of the
    first nonzero scalar, or None."""
    k = field.kernels
    flat = sum((data.draw(raw_vectors(field)) for _ in range(3)), ())
    assert k.lead(flat) == _lead_ref(k.unpack(flat))
    zero = (0, 0) if field is G else (0,)
    last = (0, 5) if field is G else (5,)  # an imaginary lead on gauss
    for flat in (zero * 9, zero * 8 + last, zero * 4 + last + zero * 4):
        assert k.lead(flat) == _lead_ref(k.unpack(flat))


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
# the text codec on raw vectors

# zeros, small values and values past 2,000 bits
_BIG = st.one_of(st.just(0), _SMALL, st.integers(-(1 << 2100), 1 << 2100))


def fraction_text(x) -> str:
    """A scalar's literal from Fractions, sharing no formatting code with the package."""
    if isinstance(x, P):
        return str(x.residue)
    re_, im = x.re, x.im
    if not im:
        return str(re_)
    return f"{re_}{'+' if im > 0 else '-'}{abs(im)}i"


@cache
@st.composite
def nonzero_raw_vectors(draw, field, width=3):
    """A nonzero raw vector with its lead in any slot and any later entry
    possibly zero; Gaussian parts are often zero or negative."""
    if field is G:
        entry, zero = st.tuples(_BIG, _BIG), (0, 0)
    else:
        entry, zero = st.one_of(_SMALL.map(lambda x: x % P.MODULUS),
                                st.integers(0, P.MODULUS - 1)), 0
    lead = draw(st.integers(0, width - 1))
    entries = [zero if i < lead or (i > lead and draw(st.booleans())) else draw(entry)
               for i in range(width)]
    assume(entries[lead] != zero)
    return sum(entries, ()) if field is G else tuple(entries)


@cache
def big_scalars(field):
    if field is G:
        den = st.one_of(st.integers(1, 50), st.integers(1, 1 << 2100))
        return st.builds(lambda a, b, d, e: G(Fraction(a, d), Fraction(b, e)), _BIG, _BIG, den, den)
    return st.one_of(st.just(P(0)), _SMALL.map(P), st.integers(0, P.MODULUS - 1).map(P))


_MALFORMED = ("", " ", "i", "+i", "1.5", "2j", "1/-2", "3/4/5", "--1", "1+2", "1/2i+3", "x",
              "1" * 5000)  # the last is past the interpreter's digit limit


@st.composite
def gauss_literals(draw):
    def rational():
        num = draw(st.one_of(_SMALL, st.integers(-(10**650), 10**650)))
        text = str(num) if num < 0 else draw(st.sampled_from(("", "+"))) + str(num)
        if draw(st.booleans()):
            text += f"/{draw(st.one_of(st.integers(0, 12), st.integers(1, 10**650)))}"
        return text

    re_text, im_text = rational(), rational()
    if not im_text.startswith("-"):
        im_text = "+" + im_text.lstrip("+")
    shape = draw(st.sampled_from(("real", "imag", "complex", "spaced", "malformed")))
    if shape == "real":
        return re_text
    if shape == "imag":
        return re_text + "i"
    if shape == "complex":
        return re_text + im_text + "i"
    if shape == "spaced":
        return f"  {re_text} {im_text[0]} {im_text[1:]}i "
    return draw(st.sampled_from(_MALFORMED))


def prime_literals():
    digits = st.one_of(_SMALL, st.integers(-(10**700), 10**700)).map(str)
    return st.one_of(digits, digits.map(lambda t: f" {t}  "), st.sampled_from(_MALFORMED + ("+-1",)))


def codec_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as exc:  # ScalarParseError and ProjectiveError included
        return ("raised", type(exc), str(exc))


@st.composite
def real_lead_raw_vectors(draw, width=3):
    """A nonzero Gaussian raw vector whose lead is a real integer of either
    sign, often after zero entries, as every parsed point has."""
    lead = draw(st.integers(0, width - 1))
    magnitude = draw(st.one_of(st.integers(1, 4), st.integers(1, 1 << 2100)))
    entries = [(0, 0)] * lead + [(draw(st.sampled_from((1, -1))) * magnitude, 0)]
    entries += [(0, 0) if draw(st.booleans()) else draw(st.tuples(_BIG, _BIG))
                for _ in range(lead + 1, width)]
    return sum(entries, ())


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_text_matches_the_canonical_scalars(field, data):
    k = field.kernels
    width = data.draw(st.sampled_from((2, 3)))
    vectors = nonzero_raw_vectors(field, width)
    if field is G:
        vectors = st.one_of(vectors, real_lead_raw_vectors(width))
    v = data.draw(vectors)
    canonical = k.normalize(v)
    assert k.text(v) == tuple(map(str, canonical)) == tuple(map(fraction_text, canonical))


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_matches_the_scalar_parse(field, data):
    k = field.kernels
    literals = data.draw(st.lists(gauss_literals() if field is G else prime_literals(),
                                  min_size=2, max_size=3))
    assert codec_outcome(lambda: k.reduce_content(k.parse(literals)[0])) == codec_outcome(
        lambda: k.reduce_content(k.pack(tuple(field.parse(t) for t in literals))))
    if len(literals) == 3:  # the point parser against the scalar route it replaced
        text = f"({' : '.join(literals)})"
        assert outcome(ProjPoint.parse, text, field) == outcome(
            lambda: ProjPoint(tuple(field.parse(t) for t in text[1:-1].split(":")), field))


_LAYOUT = "({} : {} : {})"  # the layout str prints
# others: no blank, more blanks, blanks inside the parentheses, a tab or a
# no-break space beside a literal, four blanks in other places, and blanks
# around the parentheses, which parse strips, so that text is kept
_OTHER_LAYOUTS = (
    "({}:{}:{})", "({}  : {} : {})", "( {} : {} : {} )", "({} :\t{} : {})", "({} : {} : {}\t)",
    "(\t{} : {} : {})", "({} : {} : {}\u00a0)", "( {} : {} :{})", "\t({} : {} : {})  ")
# a canonical Gaussian literal: real part, then the sign and magnitude of an imaginary part
_CANONICAL_GAUSS = re.compile(r"(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)i)?")


def _higher_terms(part: str, k: int) -> str:
    num, _, den = part.partition("/")
    return f"{int(num) * k}/{int(den or 1) * k}"


def _other_denominator(part: str) -> str:
    """The same part over a denominator with a leading zero, or over 1."""
    return part.replace("/", "/0") if "/" in part else part + "/1"


def _non_ascii(text: str) -> str:
    """The first ASCII digit as the Arabic-Indic digit of the same value."""
    i = next(i for i, c in enumerate(text) if c.isdigit())
    return text[:i] + chr(0x660 + int(text[i])) + text[i + 1:]


@st.composite
def respelled(draw, field, literal: str) -> str:
    """`literal` (as str prints it) spelled another way: mostly the same value,
    sometimes its real part times i, or another canonical literal, to move
    the lead."""
    k = draw(st.integers(2, 4))
    others = ("1", "2", "-1", "0") + (("0+1i",) if field is G else (str(P.MODULUS - 1),))
    if field is P:
        n = int(literal)
        spellings = ["+" + literal, "0" + literal, "-" + str((P.MODULUS - n) % P.MODULUS),
                     str(n + P.MODULUS), _non_ascii(literal)]
    else:
        re_, sign, im = _CANONICAL_GAUSS.fullmatch(literal).groups()
        rest = f"{sign}{im}i" if im else ""
        spellings = [_higher_terms(re_, k) + rest, _other_denominator(re_) + rest,
                     re_ + "i", _non_ascii(literal), literal[0] + " " + literal[1:],
                     "0" + literal if literal[0] != "-" else "-0" + literal[1:]]
        if literal[0] != "-":
            spellings.append("+" + literal)
        if im:
            spellings += [f"{re_}{sign}{_higher_terms(im, k)}i",
                          f"{re_}{sign}{_other_denominator(im)}i"]
            if re_ == "0":
                spellings.append(f"{'-' if sign == '-' else ''}{im}i")
        else:
            spellings += [literal + "+0i", literal + "-0/5i"]
        if literal == "0":
            spellings += ["-0", f"0/{k}", "0-0i"]
    return draw(st.sampled_from(spellings + list(others)))


@st.composite
def triple_texts(draw, field):
    """A printed triple (zeros, the lead 1, then any literals) with one
    departure: one literal or the layout spelled another way, or literals
    from the codec strategies."""
    lead = draw(st.sampled_from((0, 0, 0, 1, 2)))  # mostly two literals after the lead
    literals = ["0"] * lead + ["1"] + [fraction_text(draw(big_scalars(field)))
                                       for _ in range(2 - lead)]
    departure = draw(st.sampled_from(("literal", "literal", "layout", "codec")))
    if departure == "literal":
        i = draw(st.integers(0, 2))
        literals[i] = draw(respelled(field, literals[i]))
    elif departure == "codec":
        literals = draw(st.lists(gauss_literals() if field is G else prime_literals(),
                                 min_size=3, max_size=3))
    layout = draw(st.sampled_from(_OTHER_LAYOUTS)) if departure == "layout" else _LAYOUT
    return layout.format(*literals)


def _no_text(raw):
    raise AssertionError("the kernel table's text was called")


@pytest.mark.parametrize("cls", (ProjPoint, ProjLine))
@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_parsed_triple_prints_its_value(field, cls, data):
    """Whatever the spelling, a parsed object prints what the same raw
    vector prints when built afresh."""
    text = data.draw(triple_texts(field))
    try:
        obj = cls.parse(text, field)
    except ValueError:  # a malformed literal, or a respelling to the zero vector
        return
    assert str(obj) == str(cls(obj.raw, field.kernels))


@pytest.mark.parametrize("cls", (ProjPoint, ProjLine))
@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_printed_triple_keeps_its_text(field, cls, data):
    """Parsing what str printed keeps that text: printing it again calls no
    `text` kernel."""
    k = field.kernels
    obj = cls(data.draw(nonzero_raw_vectors(field)), k)
    text = str(obj)
    with mock.patch.object(field, "kernels", k._replace(text=_no_text)):
        parsed = cls.parse(text, field)
        assert str(parsed) == text
    # kept without reduce_content, yet the raw vector the constructor builds
    assert parsed.raw == k.reduce_content(parsed.raw) == cls(
        *k.parse(text[1:-1].split(":"))[:1], k).raw
    assert cls(parsed.raw, k) == obj


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ratio_text_matches_scalar_division(field, data):
    """Harmonic pairs are drawn scaled by a large scalar, as `cross_ratio`
    scales them, and print what their own pair prints (-1 is
    2305843009213693950 on prime).  The first text is kept."""
    k = field.kernels
    c = data.draw(big_scalars(field).filter(lambda x: not x.is_zero()))
    num, den = data.draw(st.one_of(st.just((-c, c)), st.tuples(big_scalars(field), big_scalars(field))))
    assume(not (num.is_zero() and den.is_zero()))
    value = CrossRatioValue(num, den, field)
    text = str(value)
    if den.is_zero():
        assert text == "inf"
    else:
        assert text == k.text(k.pack((den, num)))[1] == str(num / den) == fraction_text(num / den)
    value.num, value.den = field.one(), field.zero()  # would print "inf" if recomputed
    assert str(value) == text


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_each_object_prints_its_own_text_every_time(field, data):
    k = field.kernels
    vectors = data.draw(st.lists(nonzero_raw_vectors(field), min_size=2, max_size=4))
    objects = [cls(v, k) for v, cls in zip(vectors, (ProjPoint, ProjLine) * 2)]
    texts = [str(o) for o in objects]
    for o, text in zip(objects, texts):
        x, y, z = o.canonical()
        assert text == f"({x} : {y} : {z})"
        assert str(o) == text


@pytest.mark.parametrize("field", FIELDS, ids=("gauss", "prime"))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_equal_points_print_identically(field, data):
    """The same point as built, rescaled through the scalar edge, read back
    from its text, and met from two lines through it."""
    k = field.kernels
    p, a, b = (ProjPoint(data.draw(nonzero_raw_vectors(field)), k) for _ in range(3))
    c = data.draw(big_scalars(field).filter(lambda x: not x.is_zero()))
    routes = [ProjPoint(tuple(c * x for x in p.coords), field),
              ProjPoint.parse(str(ProjPoint(p.raw, k)), field)]
    if not collinearity_residual(p, a, b).is_zero():
        routes.append(meet(join(p, a), join(p, b)))
    texts = [str(q) for q in routes]
    assert all(q == p for q in routes)
    assert texts == [str(p)] * len(routes)


# ----------------------------------------------------------------------
# mixed backends: no kernel looks at types, so each public construction
# must refuse a mix before its kernels run


def _backend_objects(field):
    conic = reference_conic(field)
    par = ConicParametrization(conic, reference_base(field))
    on = par.point(field(2))
    p = ProjPoint((1, 2, 3), field)
    q = ProjPoint((2, -1, 5), field)
    line = join(p, q)
    axis = ProjLine((1, 1, 1), field)
    return {
        "p": p, "q": q, "r": ProjPoint(tuple(x + y for x, y in zip(p.coords, q.coords)), field),
        "s": ProjPoint(tuple(x - y for x, y in zip(p.coords, q.coords)), field),
        "l": line, "m": ProjLine((0, 1, 4), field), "conic": conic, "par": par, "on": on,
        "chord": join(on, p), "t": field(3), "axis": axis,
        **{f"c{i}": par.point(field(i)) for i in range(5)},
        "frame": ReflectionFrame(conic, axis),
        "map": Projectivity(((1, 2, 0), (0, 1, 3), (1, 0, 1)), field),
    }


_OBJECTS = {field: _backend_objects(field) for field in FIELDS}
MIXED = {
    "join": (join, "p", "q"),
    "meet": (meet, "l", "m"),
    "incident": (incident, "p", "l"),
    "collinearity_residual": (collinearity_residual, "p", "q", "r"),
    "cross_ratio": (cross_ratio, "p", "q", "r", "s"),
    "harmonic_conjugate": (harmonic_conjugate, "p", "q", "r"),
    "Conic.contains": (Conic.contains, "conic", "on"),
    "Conic.polar": (Conic.polar, "conic", "p"),
    "Conic.pole": (Conic.pole, "conic", "l"),
    "Conic ==": (Conic.__eq__, "conic", "conic"),
    "conic_through_five": (lambda *pts: conic_through_five(pts), "c0", "c1", "c2", "c3", "c4"),
    "second_intersection": (second_intersection, "conic", "chord", "on"),
    "ConicParametrization.point": (ConicParametrization.point, "par", "t"),
    "Projectivity.apply": (Projectivity.apply, "map", "p"),
    "Projectivity.apply_line": (gf.apply_line, "map", "l"),
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


@pytest.mark.parametrize("build", (
    lambda: ProjPoint((1, 2, 3)),
    lambda: ProjLine((1, 2, 3)),
    lambda: Conic(((1, 0, 0), (0, 1, 0), (0, 0, -1))),
    lambda: Conic.from_upper_entries((1, 0, 0, 1, 0, -1)),
    lambda: Projectivity(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    lambda: CrossRatioValue(G(-1), G(1)),
    lambda: ProjPoint.parse("(1 : 2 : 3)"),
    lambda: ProjPoint.affine(1, 2),
    lambda: CrossRatioValue.infinity(),
    lambda: homogenize_affine_conic((1, 1, 0, 0, 0, -1)),
), ids=("ProjPoint", "ProjLine", "Conic", "Conic.from_upper_entries", "Projectivity",
        "CrossRatioValue", "ProjPoint.parse", "ProjPoint.affine",
        "CrossRatioValue.infinity", "homogenize_affine_conic"))
def test_constructors_need_a_backend(build):
    """No constructor or named constructor infers or defaults a backend."""
    with pytest.raises(TypeError):
        build()
