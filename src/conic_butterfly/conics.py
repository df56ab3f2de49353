"""Conics as symmetric 3x3 forms, with every construction square-root-free.

A point x is on the conic when x^T M x = 0.  Degenerate forms (det M = 0)
are rejected at construction with the determinant as witness.  No general
line-conic intersection is offered: new conic points are always produced
from known ones via `second_intersection` or the chord parametrization,
which keeps everything inside the scalar field.
"""

from __future__ import annotations

from typing import Sequence

from ._linalg import (adjugate, bilinear, combine, combine3, cross, det_mat3, dot, matmul, matvec,
                      normalize, nullspace, proportional, quad_form, transpose)
from .projective import (
    DegenerateInputError,
    ProjectiveError,
    ProjLine,
    ProjPoint,
    Projectivity,
    _infer_field,
    _require_same_field,
    incident,
    join,
)
from .scalars import GaussianRational


class DegenerateConicError(ProjectiveError):
    """Raised for det(M) = 0; carries the offending determinant."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Conic:
    """A nondegenerate conic, stored as a reduced symmetric matrix up to scale."""

    __slots__ = ("form", "field", "det")

    def __init__(self, rows, field=None):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ProjectiveError("a conic needs a 3x3 symmetric matrix")
        flat = tuple(e for r in rows for e in r)
        if field is None:
            field = _infer_field(flat)
        flat = tuple(field.coerce(e) for e in flat)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if flat[3 * i + j] != flat[3 * j + i]:
                raise ProjectiveError("conic matrix must be symmetric")
        flat = field.reduce_content(flat)
        form = (flat[0:3], flat[3:6], flat[6:9])
        d = det_mat3(form)
        if d.is_zero():
            raise DegenerateConicError("degenerate conic (zero determinant)", witness=d)
        self.form = form
        self.field = field
        self.det = d

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

    # ------------------------------------------------------------------
    def membership_residual(self, p: ProjPoint):
        return quad_form(self.form, p.coords)

    def contains(self, p: ProjPoint) -> bool:
        _require_same_field(self, p)
        return self.membership_residual(p).is_zero()

    def polar(self, p: ProjPoint) -> ProjLine:
        """The polar line M*p; for p on the conic this is the tangent."""
        _require_same_field(self, p)
        return ProjLine(matvec(self.form, p.coords), self.field)

    def pole(self, l: ProjLine) -> ProjPoint:
        """The pole adj(M)*l, inverse of `polar` up to scale."""
        _require_same_field(self, l)
        return ProjPoint(matvec(adjugate(self.form), l.coords), self.field)

    def tangent_at(self, p: ProjPoint) -> ProjLine:
        if not self.contains(p):
            raise ProjectiveError(f"{p} is not on the conic")
        return self.polar(p)

    def conjugate(self) -> "Conic":
        return Conic(tuple(tuple(e.conjugate() for e in r) for r in self.form), self.field)

    def is_real(self) -> bool:
        return self == self.conjugate()

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return proportional(sum(self.form, ()), sum(other.form, ()))

    def __hash__(self):
        return hash(("conic",) + normalize(sum(self.form, ())))

    def __str__(self):
        return "[" + ", ".join(str(e) for e in normalize(self.upper_entries())) + "]"

    def __repr__(self):
        return f"Conic{self}"


def conic_through_five(points: Sequence[ProjPoint]) -> Conic:
    """The unique conic through five points in general position.

    Solves the 5x6 incidence system exactly; a kernel of dimension other
    than one means the input was ambiguous, and a singular resulting form
    is rejected as degenerate.
    """
    points = tuple(points)
    if len(points) != 5:
        raise ProjectiveError("expected exactly 5 points")
    field = points[0].field
    for i in range(5):
        for j in range(i + 1, 5):
            if points[i] == points[j]:
                raise DegenerateInputError("coincident points cannot pin down a conic")
    rows = []
    for p in points:
        x, y, z = p.coords
        rows.append((x * x, y * y, z * z, x * y, x * z, y * z))
    kernel = nullspace(rows, 6, field)
    if len(kernel) != 1:
        raise DegenerateInputError(f"five-point system has kernel dimension {len(kernel)}, need 1")
    a, b, c, d, e, f = kernel[0]
    two_inv = (field.one() + field.one()).inv()
    return Conic(
        (
            (a, d * two_inv, e * two_inv),
            (d * two_inv, b, f * two_inv),
            (e * two_inv, f * two_inv, c),
        ),
        field,
    )


def _second_point_on(l: ProjLine, known: ProjPoint) -> ProjPoint:
    """Any point of l distinct from `known`, picked deterministically."""
    field = l.field
    one, zero = field.one(), field.zero()
    basis = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    for e in basis:
        c = cross(l.coords, e)
        if all(v.is_zero() for v in c):
            continue
        q = ProjPoint(c, field)
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
    b = _second_point_on(l, known)
    q = quad_form(conic.form, b.coords)
    if q.is_zero():
        return b
    m = bilinear(conic.form, known.coords, b.coords)
    if m.is_zero():
        return known
    out = ProjPoint(combine(q, known.coords, m + m, b.coords), conic.field)
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
    chart that is built but never evaluated costs only its two lines.

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
    leaves in its output.  kappa^-1 is computed on the first `partner` call.
    The mono generator keeps `second_intersection`: its converse point is
    built from y''s raw coordinates, so a different representative would
    change the drawn document.
    """

    __slots__ = ("conic", "base", "l0", "l1", "_coefficients", "_kappa_inv")

    def __init__(self, conic: Conic, base: ProjPoint):
        if not conic.contains(base):
            raise ProjectiveError("parametrization base must lie on the conic")
        self.conic = conic
        self.base = base
        self.l1 = conic.tangent_at(base)
        field = conic.field
        one, zero = field.one(), field.zero()
        k = next(i for i, c in enumerate(self.l1.coords) if not c.is_zero())
        e = tuple(one if i == k else zero for i in range(3))
        self.l0 = join(base, ProjPoint(e, field))
        self._coefficients = None
        self._kappa_inv = None

    def point_coefficients(self) -> tuple:
        """The three coefficient vectors (A2, A1, A0) of the point map."""
        if self._coefficients is None:
            self._coefficients = self._build_coefficients()
        return self._coefficients

    def _build_coefficients(self) -> tuple:
        field = self.conic.field
        one, zero = field.one(), field.zero()
        b = self.base.coords
        # coordinate line e_j with base[j] != 0, so d(t) is never the base
        j = next(i for i, c in enumerate(b) if not c.is_zero())
        ej = tuple(one if i == j else zero for i in range(3))
        d1 = cross(self.l1.coords, ej)
        d0 = cross(self.l0.coords, ej)
        form = self.conic.form
        v1 = matvec(form, d1)
        v0 = matvec(form, d0)
        q2 = dot(d1, v1)
        q1 = dot(d0, v1)
        q1 = q1 + q1
        q0 = dot(d0, v0)
        m1 = dot(b, v1)
        m1 = m1 + m1
        m0 = dot(b, v0)
        m0 = m0 + m0
        a2 = combine(q2, b, m1, d1)
        a1 = combine3(q1, b, -m1, d0, -m0, d1)
        a0 = combine(q0, b, m0, d0)
        # one shared content factor: the three vectors must keep their relative scale
        flat = field.reduce_content(a2 + a1 + a0)
        return (flat[0:3], flat[3:6], flat[6:9])

    def _as_pair(self, t) -> tuple:
        if isinstance(t, tuple):
            t0, t1 = t
            return (self.conic.field.coerce(t0), self.conic.field.coerce(t1))
        return (self.conic.field.coerce(t), self.conic.field.one())

    def line(self, t) -> ProjLine:
        t0, t1 = self._as_pair(t)
        if t0.is_zero() and t1.is_zero():
            raise ProjectiveError("(0 : 0) is not a parameter")
        coords = tuple(t0 * a + t1 * b for a, b in zip(self.l1.coords, self.l0.coords))
        return ProjLine(coords, self.conic.field)

    def point(self, t) -> ProjPoint:
        t0, t1 = self._as_pair(t)
        if t0.is_zero() and t1.is_zero():
            raise ProjectiveError("(0 : 0) is not a parameter")
        if type(t0) is GaussianRational and (t0.d != 1 or t1.d != 1):
            # (t0 : t1) times t0.d*t1.d is a pair of Gaussian integers; the point
            # scales by the positive rational (t0.d*t1.d)^2, which ProjPoint's
            # content reduction removes
            t0, t1 = (GaussianRational(t0.a * t1.d, t0.b * t1.d),
                      GaussianRational(t1.a * t0.d, t1.b * t0.d))
        a2, a1, a0 = self.point_coefficients()
        coords = combine3(t0 * t0, a2, t0 * t1, a1, t1 * t1, a0)
        if all(c.is_zero() for c in coords):
            raise AssertionError("chart point map gave the zero vector; arithmetic bug")
        return ProjPoint(coords, self.conic.field)

    def partner(self, t, m: ProjPoint) -> tuple:
        """The parameter of the second conic point on the line through point(t)
        and m, for any m other than point(t); t itself when that line is the
        tangent at point(t)."""
        _require_same_field(self.conic, m)
        t0, t1 = self._as_pair(t)
        if t0.is_zero() and t1.is_zero():
            raise ProjectiveError("(0 : 0) is not a parameter")
        a2, a1, a0 = self.point_coefficients()
        form = self.conic.form
        if self._kappa_inv is None:
            self._kappa_inv = bilinear(form, a2, a0).inv()
        w = matvec(form, m.coords)
        k = self._kappa_inv
        alpha, beta, gamma = dot(a2, w) * k, dot(a1, w) * k, dot(a0, w) * k
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
    """Push the conic forward: p on C iff t(p) on the result."""
    if t.field is not conic.field:
        raise TypeError("cannot mix scalar backends in one construction")
    inv = adjugate(t.matrix)
    return Conic(matmul(transpose(inv), matmul(conic.form, inv)), conic.field)
