"""Named butterfly configurations and their seeded random generation.

A scenario bundles the conic with every named point of the statement
(a, b, m, the two chords, and the derived meets and harmonic conjugate),
under the names of its flavour: the projective butterfly (damn) or its
real-plane form (cutl).
`build_scenario` tests the points a caller hands in: realness for a cutl
scenario, then that a, b and the chord ends lie on the conic, then every
incidence.  `random_scenario` draws its points on the conic through the
chart, so it is tested on the incidences only, not again on the chart's
points.  Both classify the exceptional positions as degenerate rather than
raising, because the randomized campaigns will occasionally land on them.

Generation draws everything through the rational chord parametrization of
a transformed reference conic, so every produced coordinate stays in the
scalar field; structurally unusable draws are rejected and retried under a
budget, and exhausting the budget is reported distinctly.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple, Optional, Tuple

from .conics import Conic, ConicParametrization, _second_point_on, second_intersection, transform_conic
from .projective import (
    DegenerateInputError,
    ProjectiveError,
    ProjLine,
    ProjPoint,
    Projectivity,
    RetryBudget,
    RetryCapError,  # re-exported with RetryBudget, the budget every generator here takes
    harmonic_conjugate,
    incident,
    join,
    meet,
)
from .reflection import ReflectionFrame
from .scalars import GaussianRational


def _real_plane_form(conic: Conic) -> Conic:
    """The conic of a real-plane (cutl) scenario: the raw form divided by its
    first nonzero upper entry, which must leave it real.  That entry is in
    the first row, which a nondegenerate form cannot have all zero, so it is
    the lead of the flat form too.  The result is the conic of the affine
    coefficients read off the canonical form."""
    k = conic.kernels
    flat = k.over_lead(sum(conic.raw, ()))
    if not k.real(flat):
        raise ProjectiveError("conic is not real; no affine coefficients exist")
    return Conic(flat, k)


# ----------------------------------------------------------------------
# the butterfly, in its two flavours


class Flavour(NamedTuple):
    """What the projective butterfly (damn) and its real-plane form (cutl)
    differ in: the names of the seven inputs and three derived points, the
    crosswise joins whose meets with ab are the derived d1 and d2, the
    argument order of the cross-ratio, and whether coordinates must be real.

    `derived` is (d1, d2, conj), where conj is the harmonic conjugate of m in
    {a, b}; `ratio` names the four cross-ratio arguments.  Both flavours
    reflect d1 across the polar of conj and compare it with d2.
    """

    claim: str
    inputs: tuple
    derived: tuple
    crosswise: tuple
    ratio: tuple
    real: bool


FLAVOURS = {f.claim: f for f in (
    Flavour("damn", ("a", "b", "m", "r", "s", "f", "g"), ("i", "j", "p"),
            (("r", "g"), ("f", "s")), ("p", "j", "m", "i"), real=False),
    Flavour("cutl", ("a", "b", "m", "r", "s", "u", "v"), ("p", "q", "m'"),
            (("r", "u"), ("s", "v")), ("m'", "p", "m", "q"), real=True),
)}


def _flavour(kind: str) -> Flavour:
    try:
        return FLAVOURS[kind]
    except KeyError:
        raise ValueError(f"unknown scenario kind {kind!r}") from None


class ButterflyScenario:
    """Conic, chord ab with interior point m, two chords through m, and the
    derived points: two crosswise meets with ab and the harmonic conjugate
    of m in {a, b}.  `points` holds them all under the flavour's names.

    `degenerate_reason` is set (and the crosswise meets left out) when the
    configuration collapses; checks turn that into a DEGENERATE verdict.
    """

    __slots__ = ("flavour", "conic", "points", "degenerate_reason", "field")

    def __init__(self, flavour, conic, points, degenerate_reason):
        self.flavour = flavour
        self.conic = conic
        self.points = points
        self.degenerate_reason = degenerate_reason
        self.field = conic.field

    def inputs(self) -> Tuple[tuple, ...]:
        return tuple((n, self.points[n]) for n in self.flavour.inputs)

    def transform(self, t: Projectivity) -> "ButterflyScenario":
        return build_scenario(transform_conic(t, self.conic),
                              *(t.apply(w) for _, w in self.inputs()), kind=self.flavour.claim)


def _validate_chord(k, end1, end2, m, label: str) -> Tuple[Optional[tuple], Optional[str]]:
    """(raw chord line, None), or (None, reason) on structural collapse; a
    chord off m raises.  The ends are on the conic: `build_scenario` tests
    given ends, and the generator's come from the chart."""
    chord = k.cross(end1.raw, end2.raw)
    if not any(chord):
        return None, f"tangent chord {label}"
    if not k.is_zero(k.dot(m.raw, chord)):
        raise ProjectiveError(f"chord {label} does not pass through m")
    return chord, None


def build_scenario(conic: Conic, a, b, m, r, s, c, d, *, kind: str = "damn") -> ButterflyScenario:
    """Validate a butterfly of flavour `kind`, whose second chord is (c, d).

    The given points are tested here, in this order: a real-plane (cutl)
    scenario needs real coordinates, and its conic is rescaled to the real
    form of its affine coefficients; a and b, then the ends of (r, s), then
    those of (c, d) must lie on the conic.  `_build_scenario` then tests the
    incidences."""
    flavour = _flavour(kind)
    names, given = flavour.inputs, (a, b, m, r, s, c, d)
    if flavour.real:
        conic = _real_plane_form(conic)
        for name, w in zip(names, given):
            if not w.is_real():
                raise ProjectiveError(f"planar scenario requires real coordinates, but {name} = {w}")
    for w in (a, b):
        if not conic.contains(w):
            raise ProjectiveError(f"{w} is not on the conic")
    for label, ends in (("(r,s)", (r, s)), (f"({names[5]},{names[6]})", (c, d))):
        for w in ends:
            if not conic.contains(w):
                raise ProjectiveError(f"chord point {w} of {label} is not on the conic")
    return _build_scenario(flavour, conic, given)


def _build_scenario(flavour: Flavour, conic: Conic, given: tuple, derived=None) -> ButterflyScenario:
    """Validate the incidences of a butterfly whose given points are real and
    on the conic, as `build_scenario` tests and the generator's chart draws
    them; `derived` gives (d1, d2, conj) instead, each checked by incidence.

    Lines that are only tested stay raw cross products, neither content-reduced
    nor wrapped: incidence and equality do not see a nonzero factor.  A
    derived meet is ProjPoint(cross(join, ab)), the point `meet` builds from
    the reduced lines, since the reduction removes a positive integer only."""
    names = flavour.inputs
    a, b, m, r, s, c, d = given
    k = conic.kernels
    ab = k.cross(a.raw, b.raw)
    if not any(ab):
        raise DegenerateInputError("a and b must be distinct")
    if m == a or m == b:
        raise ProjectiveError("m must differ from a and b")
    if not k.is_zero(k.dot(m.raw, ab)):
        raise ProjectiveError("m must lie on the chord ab")

    rs, reason = _validate_chord(k, r, s, m, "(r,s)")
    cd = None
    if reason is None:
        cd, reason = _validate_chord(k, c, d, m, f"({names[5]},{names[6]})")
    points = dict(zip(names, given))
    conj = harmonic_conjugate(a, b, m) if derived is None else derived[2]
    if derived and (conj == m or not k.is_zero(k.dot(conj.raw, ab))):
        raise ProjectiveError(f"{flavour.derived[2]} is not a point of ab other than m")
    points[flavour.derived[2]] = conj
    if reason is None:
        same = k.first_nonzero_minor
        if same(rs, ab) is None or same(cd, ab) is None:
            reason = "chord coincides with ab"
        elif same(rs, cd) is None:
            reason = "coincident chords"
    if reason is None:
        # past the chord reasons no crosswise join is zero or along ab: a zero
        # join needs coincident chords, one along ab a chord that is ab
        joins = [k.cross(points[e1].raw, points[e2].raw) for e1, e2 in flavour.crosswise]
        if derived is None:
            meets = [ProjPoint(k.cross(l, ab), k) for l in joins]
        else:
            meets = derived[:2]
            if not all(k.is_zero(k.dot(x.raw, ab)) and k.is_zero(k.dot(x.raw, l))
                       for x, l in zip(meets, joins)):
                raise ProjectiveError("a derived meet is off ab or off its crosswise join")
        points.update(zip(flavour.derived, meets))
    return ButterflyScenario(flavour, conic, points, reason)


# ----------------------------------------------------------------------
# random generation


def _random_nonzero(rng: Random, field, height: int, budget: RetryBudget, *, real: bool = False):
    while True:
        x = field.random(rng, height, real=real)
        if not x.is_zero():
            return x
        budget.tick("nonzero scalar")


def _random_point(rng: Random, field, height: int, budget: RetryBudget) -> ProjPoint:
    k = field.kernels
    while True:
        coords = k.random(rng, height, 3, False)
        if any(coords):
            return ProjPoint(coords, k)
        budget.tick("point draw")


def _point_along(p: ProjPoint, lam, q: ProjPoint) -> ProjPoint:
    """The point p + lam*q for a scalar lam; a Gaussian lam = n/d is taken
    as d*p + n*q, which content reduction makes the same coordinates."""
    k = p.kernels
    n, d = k.param(lam, p.field.one())
    return ProjPoint(k.combine(d, p.raw, k.neg(n), q.raw), k)


def _same_parameter(k, t, s) -> bool:
    """Whether two raw chart parameters, so their points, agree: t0*s1 = t1*s0."""
    return k.mul(t[0], s[1]) == k.mul(t[1], s[0])  # raw scalars are canonical


def _random_chart_point(par: ConicParametrization, rng: Random, height: int,
                        budget: RetryBudget, *, real: bool = False, avoid=()) -> tuple:
    """A random raw chart parameter t off the avoid list, with its point and
    the raw content g its content reduction removed: point = S*v(t)/g, with
    g read off the two vectors, so the point's reduction is the one gcd."""
    field = par.conic.field
    k, one = field.kernels, field.one()
    while True:
        t = k.param(field.random(rng, height, real=real), one)
        if not any(_same_parameter(k, t, w) for w in avoid):
            coords = par._coords(t)
            point = ProjPoint(coords, k)
            return t, point, k.content(coords, point.raw)
        budget.tick("conic point collision")


def _chord_point(end1: tuple, lam, end2: tuple) -> Tuple[ProjPoint, tuple]:
    """m = a + lam*b for two `_random_chart_point` draws (t, point, content),
    as `_point_along` builds it, with chart coordinates w: m = S*w up to a
    positive rational.  With lam = n/d, a = S*v(ta)/ga and b = S*v(tb)/gb,
    w = d*gb*v(ta) + n*ga*v(tb) for the Veronese points v."""
    (ta, a, ga), (tb, b, gb) = end1, end2
    k = a.kernels
    n, d = k.param(lam, a.field.one())
    m = ProjPoint(k.combine(d, a.raw, k.neg(n), b.raw), k)
    va, vb = ([k.mul(t0, t0), k.mul(t0, t1), k.mul(t1, t1)] for t0, t1 in (ta, tb))
    return m, k.combine(k.mul(d, gb), k.vector(*va), k.neg(k.mul(n, ga)), k.vector(*vb))


def random_conic(rng: Random, field=GaussianRational, height_bound: int = 10,
                 *, real: bool = False, budget: Optional[RetryBudget] = None) -> Tuple[Conic, ProjPoint]:
    """A random nondegenerate conic with a known point: a projective image
    of the reference conic xz = y^2, whose base point (1 : 0 : 0) rides along."""
    budget = budget if budget is not None else RetryBudget()
    return _reference_image(Projectivity.random(rng, field, height_bound, real=real, budget=budget))


def _reference_image(t: Projectivity) -> Tuple[Conic, ProjPoint]:
    """`transform_conic` of t on the reference conic xz = y^2, and
    `t.apply((1 : 0 : 0))`, in closed form, by the kernel table's
    `reference_image`: entry ij of the form is c_i.M c_j for the columns c_j
    of adj(T), and the base is T's first column."""
    k = t.kernels
    form, base = k.reference_image(t.raw)
    return Conic(form, k), ProjPoint(base, k)


def _chord_through(par: ConicParametrization, w: tuple,
                   rng: Random, height: int, budget: RetryBudget,
                   *, real: bool = False, avoid=()) -> Tuple[tuple, tuple]:
    """A chord through m = S*w as two (raw parameter, point) ends, both
    parameters off the avoid list; the second comes from the chart's Frégier
    involution at m."""
    k = par.conic.kernels
    while True:
        t, end1, _ = _random_chart_point(par, rng, height, budget, real=real, avoid=avoid)
        s = par._partner(t, w)
        if _same_parameter(k, s, t):
            budget.tick("tangent chord")
            continue
        # s is never avoided: m and an avoided end span ab, rs or uv, whose ends t avoids
        return (t, end1), (s, par._point(s))


def random_scenario(rng: Random, field=GaussianRational, height_bound: int = 10,
                    *, kind: str = "damn", budget: Optional[RetryBudget] = None) -> ButterflyScenario:
    """A random butterfly of flavour `kind`: 'damn' draws over the full
    complex field, 'cutl' draws a real-plane configuration."""
    flavour = _flavour(kind)
    real = flavour.real
    if real and field is not GaussianRational:
        raise ProjectiveError("planar scenarios require the exact Gaussian backend")
    budget = budget if budget is not None else RetryBudget()
    conic, base = random_conic(rng, field, height_bound, real=real, budget=budget)
    if real:
        conic = _real_plane_form(conic)
    par = ConicParametrization(conic, base)
    end_a = ta, a, _ = _random_chart_point(par, rng, height_bound, budget, real=real)
    end_b = tb, b, _ = _random_chart_point(par, rng, height_bound, budget, real=real, avoid=(ta,))
    mu = _random_nonzero(rng, field, height_bound, budget, real=real)
    m, w = _chord_point(end_a, mu, end_b)
    (tr, r), (ts, s) = _chord_through(par, w, rng, height_bound, budget, real=real, avoid=(ta, tb))
    (tc, c), (td, d) = _chord_through(par, w, rng, height_bound, budget, real=real,
                                      avoid=(ta, tb, tr, ts))
    # the crosswise meets in the chart, and the harmonic conjugate a - mu*b of m = a + mu*b
    params = dict(zip(flavour.inputs[3:], (tr, ts, tc, td)))
    derived = [par._chord_meet(params[e1], params[e2], ta, tb) for e1, e2 in flavour.crosswise]
    derived.append(_point_along(a, -mu, b))
    scenario = _build_scenario(flavour, conic, (a, b, m, r, s, c, d), derived)
    if scenario.degenerate_reason is not None:
        raise AssertionError(f"generator produced a degenerate scenario: {scenario.degenerate_reason}")
    return scenario


# ----------------------------------------------------------------------
# lemma-shaped input generation


def random_reflection_frame(rng: Random, field=GaussianRational, height_bound: int = 10,
                            *, budget: Optional[RetryBudget] = None) -> Tuple[ReflectionFrame, ProjPoint]:
    """A frame on a random conic, with the conic's known point.  The axis is an
    arbitrary non-tangent line, so its conic points typically leave the field."""
    budget = budget if budget is not None else RetryBudget()
    conic, base = random_conic(rng, field, height_bound, budget=budget)
    while True:
        dual = _random_point(rng, field, height_bound, budget)
        axis = ProjLine(dual.raw, dual.kernels)
        try:
            return ReflectionFrame(conic, axis), base
        except DegenerateInputError:  # raised exactly when k.p = 0: the axis is tangent
            budget.tick("tangent axis")


def random_mono_inputs(rng: Random, field=GaussianRational, height_bound: int = 10,
                       *, converse: bool = False, budget: Optional[RetryBudget] = None):
    """(frame, l, y, y', m): a pole line with its rational conic pair and a
    candidate m, either the axis meet (forward) or a generic other point."""
    budget = budget if budget is not None else RetryBudget()
    frame, base = random_reflection_frame(rng, field, height_bound, budget=budget)
    par = ConicParametrization(frame.conic, base)
    while True:
        y = _random_chart_point(par, rng, height_bound, budget)[1]
        l = join(frame.pole, y)
        y_prime = second_intersection(frame.conic, l, y)
        if y_prime != y:
            break
        budget.tick("tangent pole line")
    if converse:
        lam = _random_nonzero(rng, field, height_bound, budget)
        m = _point_along(y, lam, y_prime)
    else:
        m = meet(l, frame.axis)
    return frame, l, y, y_prime, m


def random_jap_inputs(rng: Random, field=GaussianRational, height_bound: int = 10,
                      *, budget: Optional[RetryBudget] = None):
    """(frame, y, u, l2) with the structural collapses rejected up front."""
    budget = budget if budget is not None else RetryBudget()
    frame, _base = random_reflection_frame(rng, field, height_bound, budget=budget)
    # the first two coordinate-frame points of the axis: the pole is off a
    # non-tangent axis (k.p != 0), so it never equals the first
    first = _second_point_on(frame.axis, frame.pole)
    second = _second_point_on(frame.axis, first)
    while True:
        y = _random_point(rng, field, height_bound, budget)
        if y == frame.pole:
            budget.tick("y at pole")
            continue
        lam = _random_nonzero(rng, field, height_bound, budget)
        u = _point_along(first, lam, second)
        if u == y:
            budget.tick("u equals y")
            continue
        if incident(frame.pole, join(y, u)):
            budget.tick("yu through pole")
            continue
        w = _random_point(rng, field, height_bound, budget)
        if w == frame.pole:
            budget.tick("w at pole")
            continue
        l2 = join(frame.pole, w)
        if l2 == join(frame.pole, y):
            budget.tick("l2 along py")
            continue
        return frame, y, u, l2


def random_nut_inputs(rng: Random, field=GaussianRational, height_bound: int = 10,
                      *, budget: Optional[RetryBudget] = None):
    """(frame, y, z) with join(y, z) not self-reflected."""
    budget = budget if budget is not None else RetryBudget()
    frame, _base = random_reflection_frame(rng, field, height_bound, budget=budget)
    while True:
        y = _random_point(rng, field, height_bound, budget)
        z = _random_point(rng, field, height_bound, budget)
        if y == frame.pole or z == frame.pole or y == z:
            budget.tick("degenerate pair")
            continue
        yz = join(y, z)
        if incident(frame.pole, yz) or yz == frame.axis:
            budget.tick("self-reflected line")
            continue
        return frame, y, z


def random_sack_inputs(rng: Random, field=GaussianRational, height_bound: int = 10,
                       *, budget: Optional[RetryBudget] = None):
    """(frame, u, v, m, r, s): the frame's axis is the chord through the two
    rational conic points u and v; m is on the axis and the chord (r, s)
    passes through m."""
    budget = budget if budget is not None else RetryBudget()
    conic, base = random_conic(rng, field, height_bound, budget=budget)
    par = ConicParametrization(conic, base)
    end_u = tu, u, _ = _random_chart_point(par, rng, height_bound, budget)
    end_v = tv, v, _ = _random_chart_point(par, rng, height_bound, budget, avoid=(tu,))
    frame = ReflectionFrame(conic, join(u, v))
    lam = _random_nonzero(rng, field, height_bound, budget)
    m, w = _chord_point(end_u, lam, end_v)
    (_, r), (_, s) = _chord_through(par, w, rng, height_bound, budget, avoid=(tu, tv))
    return frame, u, v, m, r, s


def random_hexagon(rng: Random, field=GaussianRational, height_bound: int = 10,
                   *, budget: Optional[RetryBudget] = None) -> Tuple[Conic, tuple]:
    """A random conic with six pairwise distinct points on it."""
    budget = budget if budget is not None else RetryBudget()
    conic, base = random_conic(rng, field, height_bound, budget=budget)
    par = ConicParametrization(conic, base)
    params, points = [], []
    while len(points) < 6:
        t, point, _ = _random_chart_point(par, rng, height_bound, budget, avoid=params)
        params.append(t)
        points.append(point)
    return conic, tuple(points)
