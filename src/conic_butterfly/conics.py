"""Conics as symmetric 3x3 forms, with every construction square-root-free.

A point x is on the conic when x^T M x = 0.  Degenerate forms (det M = 0)
are rejected at construction with the determinant as witness.  No general
line-conic intersection is offered: new conic points are always produced
from known ones via `second_intersection` or the chord parametrization,
which keeps everything inside the scalar field.
"""

from __future__ import annotations

from typing import Sequence

from .projective import (
    DegenerateInputError,
    ProjectiveError,
    ProjLine,
    ProjPoint,
    Projectivity,
    _cofactors,
    _Matrix,
    _require_same_field,
    incident,
)
from .scalars import GaussianRational, thirds


class DegenerateConicError(ProjectiveError):
    """Raised for det(M) = 0; carries the offending determinant."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Conic(_Matrix):
    """A nondegenerate conic, stored as a reduced symmetric matrix up to scale."""

    __slots__ = ()

    def __init__(self, rows, field=None):
        d = self._set_rows(rows, field, "a conic needs a 3x3 symmetric matrix", symmetric=True)
        if self.kernels.is_zero(d):
            raise DegenerateConicError("degenerate conic (zero determinant)",
                                       witness=self.kernels.scalar(d))

    @property
    def form(self) -> tuple:
        return tuple(map(self.kernels.unpack, self.raw))

    @classmethod
    def from_upper_entries(cls, entries: Sequence, field=None) -> "Conic":
        """Build from the six entries (m11, m12, m13, m22, m23, m33)."""
        if len(entries) != 6:
            raise ProjectiveError("expected 6 symmetric entries")
        m11, m12, m13, m22, m23, m33 = entries
        return cls(((m11, m12, m13), (m12, m22, m23), (m13, m23, m33)), field)

    def upper_entries(self) -> tuple:
        m = self.form
        return (m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2])

    def canonical(self) -> tuple:
        """The upper entries rescaled so the first nonzero one is 1."""
        m = self.raw
        w = len(m[0]) // 3
        return self.kernels.normalize(m[0] + m[1][w:] + m[2][2 * w:])

    # ------------------------------------------------------------------
    def membership_residual(self, p: ProjPoint):
        _require_same_field(self, p)
        return self.kernels.scalar(self.kernels.quad_form(self.raw, p.raw))

    def contains(self, p: ProjPoint) -> bool:
        _require_same_field(self, p)
        k = self.kernels
        return k.is_zero(k.quad_form(self.raw, p.raw))

    def polar(self, p: ProjPoint) -> ProjLine:
        """The polar line M*p; for p on the conic this is the tangent."""
        _require_same_field(self, p)
        return ProjLine(self.kernels.matvec(self.raw, p.raw), self.kernels)

    def pole(self, l: ProjLine) -> ProjPoint:
        """The pole adj(M)*l, inverse of `polar` up to scale; adj(M) is
        symmetric, so its rows are the cofactor columns."""
        _require_same_field(self, l)
        return ProjPoint(self.kernels.matvec(_cofactors(self), l.raw), self.kernels)

    def tangent_at(self, p: ProjPoint) -> ProjLine:
        if not self.contains(p):
            raise ProjectiveError(f"{p} is not on the conic")
        return self.polar(p)

    def conjugate(self) -> "Conic":
        return Conic(tuple(tuple(e.conjugate() for e in r) for r in self.form), self.field)

    def is_real(self) -> bool:
        return self == self.conjugate()

    # ------------------------------------------------------------------
    def __str__(self):
        return "[" + ", ".join(map(str, self.canonical())) + "]"

    def __repr__(self):
        return f"Conic{self}"


def conic_through_five(points: Sequence[ProjPoint]) -> Conic:
    """The unique conic through five points in general position.

    The conics through p1..p4 form the pencil of the line pairs A = (p1p2)(p3p4)
    and B = (p1p3)(p2p4), and B(p5)*A - A(p5)*B is its member through p5
    (Richter-Gebert, *Perspectives on Projective Geometry*, the chapter on
    conics).  The form is scaled so that its last nonzero coefficient, in the
    order x^2, y^2, z^2, xy, xz, yz, is 1, which is the kernel vector Gauss-Jordan
    elimination of the five incidence equations gives.  It vanishes exactly
    when four of the points are collinear; with three collinear it is a line
    pair, which `Conic` rejects as degenerate.
    """
    points = tuple(points)
    if len(points) != 5:
        raise ProjectiveError("expected exactly 5 points")
    for i in range(5):
        for j in range(i + 1, 5):
            if points[i] == points[j]:
                raise DegenerateInputError("coincident points cannot pin down a conic")
    kern = points[0].kernels
    p1, p2, p3, p4, p5 = (p.raw for p in points)
    lines = kern.cross(p1, p2), kern.cross(p3, p4), kern.cross(p1, p3), kern.cross(p2, p4)
    da, db, dc, dd = (kern.dot(l, p5) for l in lines)
    s, t = kern.scalar(kern.mul(dc, dd)), kern.scalar(kern.mul(da, db))
    a, b, c, d = map(kern.unpack, lines)
    # the upper entries m11, m12, m13, m22, m23, m33 of twice the matrix of
    # B(p5)*A - A(p5)*B, where A(x) = (a.x)(b.x) and B(x) = (c.x)(d.x); the
    # coefficients of x^2, y^2, z^2, xy, xz, yz are m11, m22, m33, 2*m12, 2*m13, 2*m23
    m = [s * (a[i] * b[j] + a[j] * b[i]) - t * (c[i] * d[j] + c[j] * d[i])
         for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
    k = next((k for k in (4, 2, 1, 5, 3, 0) if not m[k].is_zero()), None)
    if k is None:
        dim = 3 if all(kern.is_zero(kern.dot(lines[0], p)) for p in (p3, p4, p5)) else 2
        raise DegenerateInputError(f"five-point system has kernel dimension {dim}, need 1")
    inv = (m[k] + m[k] if k in (1, 2, 4) else m[k]).inv()
    return Conic.from_upper_entries([e * inv for e in m], points[0].field)


def _second_point_on(l: ProjLine, known: ProjPoint) -> ProjPoint:
    """Any point of l distinct from `known`, picked deterministically."""
    k = l.kernels
    for e in k.units:
        c = k.cross(l.raw, e)
        if not any(c):
            continue
        q = ProjPoint(c, k)
        if q != known:
            return q
    raise ProjectiveError("could not find a second point on the line")


def second_intersection(conic: Conic, l: ProjLine, known: ProjPoint) -> ProjPoint:
    """The residual intersection of l with the conic, given one point of it.

    With l parametrized as known + t*b, membership is t*(2*m + t*q) = 0
    where m = known^T M b and q = b^T M b, so the second root is rational.
    Returns `known` itself exactly when l is the tangent there.
    """
    if not incident(known, l):
        raise ProjectiveError("known point must lie on the line")
    if not conic.contains(known):
        raise ProjectiveError("known point must lie on the conic")
    k = conic.kernels
    b = _second_point_on(l, known)
    q = k.quad_form(conic.raw, b.raw)
    if k.is_zero(q):
        return b
    m = k.dot(known.raw, k.matvec(conic.raw, b.raw))
    if k.is_zero(m):
        return known
    out = ProjPoint(k.combine(q, known.raw, k.add(m, m), b.raw), k)
    if not conic.contains(out):
        raise AssertionError("second intersection left the conic; arithmetic bug")
    return out


class ConicParametrization:
    """Rational chart on a conic: parameters sweep the chord pencil at a base point.

    line(t0 : t1) = t0 * (tangent at base) + t1 * l0 for a fixed second
    line l0 through the base; the point at (t0 : t1) is the residual
    intersection of that line.  Infinity, (1 : 0), lands on the base point
    itself, and distinct parameters give distinct points.

    The point map is evaluated through coefficient vectors: writing
    d(t) = t*d1 + d0 for the meet of line(t) with a fixed coordinate line
    missing the base, the residual-intersection formula
    q(t)*base - 2*m(t)*d(t) expands to a vector quadratic
    point(t0 : t1) = t0^2*A2 + t0*t1*A1 + t1^2*A0, so one point costs a
    handful of multiplications instead of a full chord solve.  The vectors
    are computed on the first `point` or `point_coefficients` call, so a
    chart that is built but never evaluated costs only the membership test
    of its base.

    `partner(t, m)` is the Frégier involution of a point m off the conic:
    the parameter of the second conic point on the line through point(t)
    and m.  With w = M*m, Q(t) = point(t)^T*w = alpha*t0^2 + beta*t0*t1 +
    gamma*t1^2 for alpha, beta, gamma = A2.w, A1.w, A0.w, and the partner is
    the root of Q's polar form at t, (beta*t0 + 2*gamma*t1 : -(2*alpha*t0 +
    beta*t1)).  Since point(t)^T*M*point(s) = kappa*(t0*s1 - t1*s0)^2 with
    kappa = A2^T*M*A0 (nonzero: A2 and A0 are the distinct conic points at
    (1 : 0) and (0 : 1)), an m built from chart points makes kappa a common
    factor of alpha, beta and gamma.  Dividing it out keeps the partner, and
    so point(partner), at the chart's own size; for Gaussian scenarios this
    avoids the large non-rational common factor that `second_intersection`
    leaves in its output.  kappa^-1 is computed on the first `partner` call,
    and alpha, beta and gamma are scaled by it as scalars.  The mono generator
    keeps `second_intersection`: its converse point is built from y''s raw
    coordinates, so a different representative would change the document.

    `chord_meet(t, s, u, w)` meets two chords in the chart.  With S the
    matrix of columns (A2, A1, A0), point(t) = S*v(t) for the Veronese point
    v(t) = (t0^2, t0*t1, t1^2) of the conic xz = y^2, whose chord through
    v(t) and v(s), with the bracket t0*s1 - t1*s0 divided out, is
    l(t, s) = (t1*s1, -(t0*s1 + t1*s0), t0*s0), the tangent for t = s
    (Richter-Gebert, *Perspectives on Projective Geometry*, the chapters on
    conics).  The meet S*(l(t, s) x l(u, w)) stays at the chart's size,
    without the large Gaussian common factor of `meet` of two `join`s.

    Vectors and parameters are held raw; the public methods take and
    return scalars.  A Gaussian parameter is cleared to Gaussian integers of
    the same ratio, which scales the point by a positive rational that
    ProjPoint's content reduction removes.
    """

    __slots__ = ("conic", "base", "_coefficients", "_kappa_inv")

    def __init__(self, conic: Conic, base: ProjPoint):
        if not conic.contains(base):
            raise ProjectiveError("parametrization base must lie on the conic")
        self.conic = conic
        self.base = base
        self._coefficients = None
        self._kappa_inv = None

    def point_coefficients(self) -> tuple:
        """The three coefficient vectors (A2, A1, A0) of the point map."""
        return tuple(map(self.conic.kernels.unpack, self._raw_coefficients()))

    def _raw_coefficients(self) -> tuple:
        if self._coefficients is None:
            self._coefficients = self._build_coefficients()
        return self._coefficients

    def _build_coefficients(self) -> tuple:
        k = self.conic.kernels
        b = self.base.raw
        form = self.conic.raw
        # l1 is the tangent at the base and l0 its join with a coordinate point
        # off l1, which is not the base because the base lies on l1
        l1 = k.reduce_content(k.matvec(form, b))
        l0 = k.reduce_content(k.cross(b, k.units[k.lead(l1)]))
        # coordinate line e_j with base[j] != 0, so d(t) is never the base
        ej = k.units[k.lead(b)]
        d1 = k.cross(l1, ej)
        d0 = k.cross(l0, ej)
        v1 = k.matvec(form, d1)
        v0 = k.matvec(form, d0)
        q2 = k.dot(d1, v1)
        q1 = k.dot(d0, v1)
        q0 = k.dot(d0, v0)
        m1 = k.dot(b, v1)
        m1 = k.add(m1, m1)
        m0 = k.dot(b, v0)
        m0 = k.add(m0, m0)
        a2 = k.combine(q2, b, m1, d1)
        a1 = k.combine3(k.add(q1, q1), b, k.neg(m1), d0, k.neg(m0), d1)
        a0 = k.combine(q0, b, m0, d0)
        # one shared content factor: the three vectors must keep their relative scale
        return thirds(k.reduce_content(a2 + a1 + a0))

    def _scalar_pair(self, t) -> tuple:
        """The two scalars of a parameter given as a scalar or a homogeneous pair."""
        field = self.conic.field
        t0, t1 = t if isinstance(t, tuple) else (t, field.one())
        t0, t1 = field.coerce(t0), field.coerce(t1)
        if t0.is_zero() and t1.is_zero():
            raise ProjectiveError("(0 : 0) is not a parameter")
        return t0, t1

    def _as_pair(self, t) -> tuple:
        """The raw pair of a parameter given as a scalar or a homogeneous pair."""
        return self.conic.kernels.param(*self._scalar_pair(t))

    def point(self, t) -> ProjPoint:
        return self._point(self._as_pair(t))

    def _point(self, pair) -> ProjPoint:
        t0, t1 = pair
        k = self.conic.kernels
        a2, a1, a0 = self._raw_coefficients()
        coords = k.combine3(k.mul(t0, t0), a2, k.mul(t0, t1), a1, k.mul(t1, t1), a0)
        if not any(coords):
            raise AssertionError("chart point map gave the zero vector; arithmetic bug")
        return ProjPoint(coords, k)

    def chord_meet(self, t, s, u, w) -> ProjPoint:
        """The meet of the chords point(t)point(s) and point(u)point(w)."""
        return self._chord_meet(*map(self._as_pair, (t, s, u, w)))

    def _chord_meet(self, t, s, u, w) -> ProjPoint:
        k = self.conic.kernels
        x, y, z = k.units
        l, n = [k.combine3(k.mul(p1, q1), x, k.neg(k.add(k.mul(p0, q1), k.mul(p1, q0))), y,
                           k.mul(p0, q0), z) for (p0, p1), (q0, q1) in ((t, s), (u, w))]
        a2, a1, a0 = self._raw_coefficients()
        coords = k.combine3(k.minor(l, n, 0), a2, k.minor(l, n, 1), a1, k.minor(l, n, 2), a0)
        if not any(coords):
            raise DegenerateInputError("meet of coincident lines is undefined")
        return ProjPoint(coords, k)

    def partner(self, t, m: ProjPoint) -> tuple:
        """The parameter of the second conic point on the line through point(t)
        and m, for any m other than point(t); t itself when that line is the
        tangent at point(t)."""
        _require_same_field(self.conic, m)
        t0, t1 = self._scalar_pair(t)
        k = self.conic.kernels
        a2, a1, a0 = self._raw_coefficients()
        form = self.conic.raw
        if self._kappa_inv is None:
            self._kappa_inv = k.scalar(k.dot(a2, k.matvec(form, a0))).inv()
        w = k.matvec(form, m.raw)
        c = self._kappa_inv
        alpha, beta, gamma = (k.scalar(k.dot(a, w)) * c for a in (a2, a1, a0))
        return (beta * t0 + (gamma + gamma) * t1, -((alpha + alpha) * t0 + beta * t1))


class AffineConicSpec:
    """Coefficients (A, B, Q, D, E, F) of A x^2 + B y^2 + Q xy + D x + E y + F.

    All coefficients must be real scalars and the quadratic part must not
    vanish identically.
    """

    __slots__ = ("a", "b", "q", "d", "e", "f", "field")

    def __init__(self, a, b, q, d, e, f, field=GaussianRational):
        vals = tuple(field.coerce(v) for v in (a, b, q, d, e, f))
        if not all(v.is_real() for v in vals):
            raise ProjectiveError("affine conic coefficients must be real")
        if all(v.is_zero() for v in vals[:3]):
            raise ProjectiveError("affine conic must be genuinely quadratic")
        self.a, self.b, self.q, self.d, self.e, self.f = vals
        self.field = field

    def coefficients(self) -> tuple:
        return (self.a, self.b, self.q, self.d, self.e, self.f)

    def __eq__(self, other):
        if not isinstance(other, AffineConicSpec):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __repr__(self):
        return f"AffineConicSpec{tuple(str(v) for v in self.coefficients())}"


def homogenize_affine_conic(spec: AffineConicSpec) -> Conic:
    """Extend the affine curve to the projective plane; (x, y) maps to (x : y : 1)."""
    field = spec.field
    half = (field.one() + field.one()).inv()
    return Conic(
        (
            (spec.a, spec.q * half, spec.d * half),
            (spec.q * half, spec.b, spec.e * half),
            (spec.d * half, spec.e * half, spec.f),
        ),
        field,
    )


def transform_conic(t: Projectivity, conic: Conic) -> Conic:
    """Push the conic forward: p on C iff t(p) on the result.

    The new form is adj(T)^T M adj(T); with c_j the columns of adj(T), its
    row i is (c_i . M c_0, c_i . M c_1, c_i . M c_2)."""
    _require_same_field(t, conic)
    k = conic.kernels
    cols = _cofactors(t)
    images = tuple(k.matvec(conic.raw, c) for c in cols)
    return Conic(sum((k.matvec(images, c) for c in cols), ()), k)
