"""Named butterfly configurations and their seeded random generation.

A scenario bundles the conic with every named point of the statement
(a, b, m, the two chords, and the derived meets and harmonic conjugate),
under the names of its flavour: the projective butterfly (damn) or its
real-plane form (cutl).
Construction validates all memberships and incidences and classifies the
exceptional positions as degenerate rather than raising, because the
randomized campaigns will occasionally land on them.

Generation draws everything through the rational chord parametrization of
a transformed reference conic, so every produced coordinate stays in the
scalar field; structurally unusable draws are rejected and retried under a
budget, and exhausting the budget is reported distinctly.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple, Optional, Tuple

from .conics import (
    AffineConicSpec,
    Conic,
    ConicParametrization,
    _second_point_on,
    homogenize_affine_conic,
    second_intersection,
    transform_conic,
)
from .projective import (
    DegenerateInputError,
    ProjectiveError,
    ProjLine,
    ProjPoint,
    Projectivity,
    harmonic_conjugate,
    incident,
    join,
    meet,
)
from .reflection import ReflectionFrame
from .scalars import GaussianRational


class RetryCapError(ProjectiveError):
    """A generator rejected more draws than its budget allows."""


class RetryBudget:
    """Counts rejected draws; raises past the cap so pathological seeds surface."""

    __slots__ = ("cap", "spent")
    DEFAULT_CAP = 200

    def __init__(self, cap: int = DEFAULT_CAP):
        self.cap = cap
        self.spent = 0

    def tick(self, what: str = "draw") -> None:
        self.spent += 1
        if self.spent > self.cap:
            raise RetryCapError(f"rejected {self.spent} draws (last: {what}); giving up")


_REFERENCE_CACHE: dict = {}


def reference_conic(field=GaussianRational) -> Conic:
    """The conic xz - y^2 = 0, the fixed starting shape for random generation."""
    cached = _REFERENCE_CACHE.get(field)
    if cached is None:
        one, zero = field.one(), field.zero()
        half = (one + one).inv()
        conic = Conic(((zero, zero, half), (zero, -one, zero), (half, zero, zero)), field)
        cached = (conic, ProjPoint((one, zero, zero), field))
        _REFERENCE_CACHE[field] = cached
    return cached[0]


def reference_base(field=GaussianRational) -> ProjPoint:
    reference_conic(field)
    return _REFERENCE_CACHE[field][1]


def affine_spec_from_conic(conic: Conic) -> AffineConicSpec:
    """Read affine coefficients off a real symmetric form, rescaling first."""
    entries = conic.upper_entries()
    lead = next(e for e in entries if not e.is_zero())
    inv = lead.inv()
    m11, m12, m13, m22, m23, m33 = (e * inv for e in entries)
    vals = (m11, m12, m13, m22, m23, m33)
    if not all(v.is_real() for v in vals):
        raise ProjectiveError("conic is not real; no affine coefficients exist")
    two = conic.field.one() + conic.field.one()
    return AffineConicSpec(m11, m22, two * m12, two * m13, two * m23, m33, conic.field)


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


def _validate_chord(conic, end1, end2, m, label: str) -> Tuple[Optional[ProjLine], Optional[str]]:
    """(chord line, None), or (None, reason) on structural collapse;
    membership errors raise."""
    for w in (end1, end2):
        if not conic.contains(w):
            raise ProjectiveError(f"chord point {w} of {label} is not on the conic")
    if end1 == end2:
        return None, f"tangent chord {label}"
    chord = join(end1, end2)
    if not incident(m, chord):
        raise ProjectiveError(f"chord {label} does not pass through m")
    return chord, None


def build_scenario(conic: Conic, a, b, m, r, s, c, d, *, kind: str = "damn") -> ButterflyScenario:
    """Validate a butterfly of flavour `kind`, whose second chord is (c, d).

    A real-plane (cutl) scenario needs real coordinates, and its conic is
    rebuilt from its affine coefficients."""
    flavour = _flavour(kind)
    if flavour.real:
        conic = homogenize_affine_conic(affine_spec_from_conic(conic))
    return _build_scenario(flavour, conic, (a, b, m, r, s, c, d))


def _build_scenario(flavour: Flavour, conic: Conic, given: tuple) -> ButterflyScenario:
    names = flavour.inputs
    a, b, m, r, s, c, d = given
    if flavour.real:
        for name, w in zip(names, given):
            if not w.is_real():
                raise ProjectiveError(f"planar scenario requires real coordinates, but {name} = {w}")
    for w in (a, b):
        if not conic.contains(w):
            raise ProjectiveError(f"{w} is not on the conic")
    if a == b:
        raise DegenerateInputError("a and b must be distinct")
    if m == a or m == b:
        raise ProjectiveError("m must differ from a and b")
    ab = join(a, b)
    if not incident(m, ab):
        raise ProjectiveError("m must lie on the chord ab")

    rs, reason = _validate_chord(conic, r, s, m, "(r,s)")
    cd = None
    if reason is None:
        cd, reason = _validate_chord(conic, c, d, m, f"({names[5]},{names[6]})")
    points = dict(zip(names, given))
    points[flavour.derived[2]] = harmonic_conjugate(a, b, m)
    if reason is None:
        if rs == ab or cd == ab:
            reason = "chord coincides with ab"
        elif rs == cd:
            reason = "coincident chords"
    if reason is None:
        try:
            meets = [meet(join(points[e1], points[e2]), ab) for e1, e2 in flavour.crosswise]
        except DegenerateInputError:
            reason = "derived meet undefined"
        else:
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


def _random_point(rng: Random, field, height: int, budget: RetryBudget, *, real: bool = False) -> ProjPoint:
    k = field.kernels
    while True:
        coords = k.pack(tuple(field.random(rng, height, real=real) for _ in range(3)))
        if any(coords):
            return ProjPoint(coords, k)
        budget.tick("point draw")


def _point_along(p: ProjPoint, lam, q: ProjPoint) -> ProjPoint:
    """The point p + lam*q for a scalar lam; a Gaussian lam = n/d is taken
    as d*p + n*q, which content reduction makes the same coordinates."""
    k = p.kernels
    n, d = k.param(lam, p.field.one())
    return ProjPoint(k.combine(d, p.raw, k.neg(n), q.raw), k)


def _random_chart_point(par: ConicParametrization, rng: Random, height: int,
                        budget: RetryBudget, *, real: bool = False, avoid=()) -> tuple:
    """A random chart parameter t with its point, the point off the avoid list."""
    field = par.conic.field
    while True:
        t = field.random(rng, height, real=real)
        q = par.point(t)
        if all(q != w for w in avoid):
            return t, q
        budget.tick("conic point collision")


def _random_conic_point(par: ConicParametrization, rng: Random, height: int,
                        budget: RetryBudget, *, real: bool = False, avoid=()) -> ProjPoint:
    return _random_chart_point(par, rng, height, budget, real=real, avoid=avoid)[1]


def random_conic(rng: Random, field=GaussianRational, height_bound: int = 10,
                 *, real: bool = False, budget: Optional[RetryBudget] = None) -> Tuple[Conic, ProjPoint]:
    """A random nondegenerate conic with a known point: a projective image
    of the reference conic, whose base point rides along."""
    budget = budget if budget is not None else RetryBudget()
    t = Projectivity.random(rng, field, height_bound, real=real, budget=budget)
    return transform_conic(t, reference_conic(field)), t.apply(reference_base(field))


def _chord_through(par: ConicParametrization, m: ProjPoint,
                   rng: Random, height: int, budget: RetryBudget,
                   *, real: bool = False, avoid=()) -> Tuple[ProjPoint, ProjPoint]:
    """A chord (end1, end2) through m with both endpoints off the avoid list;
    end2 is a chart point too, through the chart's Frégier involution at m."""
    while True:
        t, end1 = _random_chart_point(par, rng, height, budget, real=real, avoid=avoid)
        end2 = par.point(par.partner(t, m))
        if end2 == end1:
            budget.tick("tangent chord")
            continue
        if any(end2 == w for w in avoid):
            budget.tick("chord endpoint collision")
            continue
        return end1, end2


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
        conic = homogenize_affine_conic(affine_spec_from_conic(conic))
    par = ConicParametrization(conic, base)
    a = _random_conic_point(par, rng, height_bound, budget, real=real)
    b = _random_conic_point(par, rng, height_bound, budget, real=real, avoid=(a,))
    mu = _random_nonzero(rng, field, height_bound, budget, real=real)
    m = _point_along(a, mu, b)
    r, s = _chord_through(par, m, rng, height_bound, budget, real=real, avoid=(a, b))
    c, d = _chord_through(par, m, rng, height_bound, budget, real=real, avoid=(a, b, r, s))
    scenario = _build_scenario(flavour, conic, (a, b, m, r, s, c, d))
    if scenario.degenerate_reason is not None:
        raise AssertionError(f"generator produced a degenerate scenario: {scenario.degenerate_reason}")
    return scenario


# ----------------------------------------------------------------------
# lemma-shaped input generation


def random_reflection_frame(rng: Random, field=GaussianRational, height_bound: int = 10,
                            *, real: bool = False, with_chord: bool = False,
                            budget: Optional[RetryBudget] = None) -> Tuple[ReflectionFrame, ConicParametrization]:
    """A frame on a random conic.  With `with_chord` the axis is the join of
    two rational conic points (attached as u, v); otherwise the axis is an
    arbitrary non-tangent line, so its conic points typically leave the field."""
    budget = budget if budget is not None else RetryBudget()
    conic, base = random_conic(rng, field, height_bound, real=real, budget=budget)
    par = ConicParametrization(conic, base)
    if with_chord:
        u = _random_conic_point(par, rng, height_bound, budget, real=real)
        v = _random_conic_point(par, rng, height_bound, budget, real=real, avoid=(u,))
        return ReflectionFrame(conic, join(u, v), u, v), par
    while True:
        dual = _random_point(rng, field, height_bound, budget, real=real)
        axis = ProjLine(dual.raw, dual.kernels)
        if not incident(conic.pole(axis), axis):
            return ReflectionFrame(conic, axis), par
        budget.tick("tangent axis")


def random_mono_inputs(rng: Random, field=GaussianRational, height_bound: int = 10,
                       *, converse: bool = False, budget: Optional[RetryBudget] = None):
    """(frame, l, y, y', m): a pole line with its rational conic pair and a
    candidate m, either the axis meet (forward) or a generic other point."""
    budget = budget if budget is not None else RetryBudget()
    frame, par = random_reflection_frame(rng, field, height_bound, budget=budget)
    while True:
        y = _random_conic_point(par, rng, height_bound, budget)
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
    frame, _par = random_reflection_frame(rng, field, height_bound, budget=budget)
    axis_pts = _axis_sample_points(frame.axis)
    while True:
        y = _random_point(rng, field, height_bound, budget)
        if y == frame.pole:
            budget.tick("y at pole")
            continue
        lam = _random_nonzero(rng, field, height_bound, budget)
        u = _point_along(axis_pts[0], lam, axis_pts[1])
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
    frame, _par = random_reflection_frame(rng, field, height_bound, budget=budget)
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
    """(frame-with-chord, m, r, s): m on the axis, chord (r, s) through m."""
    budget = budget if budget is not None else RetryBudget()
    frame, par = random_reflection_frame(rng, field, height_bound, with_chord=True, budget=budget)
    lam = _random_nonzero(rng, field, height_bound, budget)
    m = _point_along(frame.u, lam, frame.v)
    r, s = _chord_through(par, m, rng, height_bound, budget, avoid=(frame.u, frame.v))
    return frame, m, r, s


def random_hexagon(rng: Random, field=GaussianRational, height_bound: int = 10,
                   *, budget: Optional[RetryBudget] = None) -> Tuple[Conic, tuple]:
    """A random conic with six pairwise distinct points on it."""
    budget = budget if budget is not None else RetryBudget()
    conic, base = random_conic(rng, field, height_bound, budget=budget)
    par = ConicParametrization(conic, base)
    # distinct parameters give distinct points, so dedupe on the parameter
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


def _axis_sample_points(axis: ProjLine) -> Tuple[ProjPoint, ProjPoint]:
    """Two distinct points of the axis, picked from the coordinate frame."""
    k = axis.kernels
    first = ProjPoint(next(c for c in (k.cross(axis.raw, e) for e in k.units) if any(c)), k)
    return first, _second_point_on(axis, first)
