"""Conics as symmetric 3x3 forms, with every construction square-root-free.

A point x is on the conic when x^T M x = 0.  A form is given by its six
upper entries or, for a real affine curve, by the six coefficients of its
equation (`homogenize_affine_conic`).  Degenerate forms (det M = 0) are
rejected at construction with the determinant as witness.  No general
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


class DegenerateConicError(ProjectiveError):
    """Raised for det(M) = 0; carries the offending determinant."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Conic(_Matrix):
    """A nondegenerate conic, stored as a reduced symmetric matrix up to scale."""

    __slots__ = ()

    def __init__(self, rows, field):
        d = self._set_rows(rows, field, "a conic needs a 3x3 symmetric matrix", symmetric=True)
        if self.kernels.is_zero(d):
            raise DegenerateConicError("degenerate conic (zero determinant)",
                                       witness=self.kernels.scalar(d))

    @property
    def form(self) -> tuple:
        return tuple(map(self.kernels.unpack, self.raw))

    @classmethod
    def from_upper_entries(cls, entries: Sequence, field) -> "Conic":
        """Build from the six entries (m11, m12, m13, m22, m23, m33)."""
        if len(entries) != 6:
            raise ProjectiveError("expected 6 symmetric entries")
        m11, m12, m13, m22, m23, m33 = entries
        return cls(((m11, m12, m13), (m12, m22, m23), (m13, m23, m33)), field)

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

    def is_real(self) -> bool:
        """Whether conjugation fixes the form up to scale: it is real over its lead entry."""
        k = self.kernels
        return k.real(k.over_lead(sum(self.raw, ())))

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
    """Any point of l distinct from `known`, picked deterministically.  The loop
    always returns: l is at most one coordinate line, holding at most one
    coordinate vertex, so two of the meets cross(l, e_i) are distinct points."""
    k = l.kernels
    for e in k.units:
        c = k.cross(l.raw, e)
        if not any(c):
            continue
        q = ProjPoint(c, k)
        if q != known:
            return q


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
    line l0 through the base, its join with the coordinate point e_k at the
    tangent's first nonzero slot k; the point at (t0 : t1) is the residual
    intersection of that line.  Infinity, (1 : 0), lands on the base point
    itself, and distinct parameters give distinct points.

    The point map is evaluated through coefficient vectors: writing
    d(t) = t*d1 + d0 for the meet of line(t) with the coordinate line e_j
    at the base's first nonzero slot j, which misses the base, the
    residual-intersection formula q(t)*base - 2*m(t)*d(t) expands to a
    vector quadratic point(t0 : t1) = t0^2*A2 + t0*t1*A1 + t1^2*A0, so one
    point costs a handful of multiplications instead of a full chord solve.
    The constructor tests the base and takes the vectors, content-reduced
    together, from the kernel table's `chart`.

    `_partner(t, w)` is the Frégier involution of a point m off the conic:
    the parameter of the second conic point on the line through point(t)
    and m.  With S the matrix of columns (A2, A1, A0) and kappa = A2^T*M*A0
    (nonzero: A2 and A0 are the distinct conic points at (1 : 0) and
    (0 : 1)), S^T*M*S = kappa*G0 exactly, for G0 = [[0, 0, 1], [0, -2, 0],
    [1, 0, 0]] the form of xz = y^2 on the Veronese points v(t) = (t0^2,
    t0*t1, t1^2), so point(t)^T*M*point(s) = kappa*(t0*s1 - t1*s0)^2
    (Richter-Gebert, *Perspectives on Projective Geometry*, the chapters on
    conics).  For m = S*w, Q(t) = point(t)^T*M*m is then kappa times
    alpha*t0^2 + beta*t0*t1 + gamma*t1^2 with (alpha, beta, gamma) = (w2,
    -2*w1, w0), and the partner is the root of Q's polar form at t,
    (beta*t0 + 2*gamma*t1 : -(2*alpha*t0 + beta*t1)).  The generators know
    w: they build m from chart points and their contents, so the partner
    costs a few products of the parameters, and point(partner) stays at the
    chart's own size; for Gaussian scenarios this avoids the large
    non-rational common factor that `second_intersection` leaves in its
    output.  w may carry any positive rational factor on gauss, where the
    pair is content-reduced, and must be exact on the prime field.  The
    mono generator keeps `second_intersection`: its converse point is
    built from y''s raw coordinates, so a different representative would
    change the document.

    `_chord_meet(t, s, u, w)` meets two chords in the chart.  With S the
    matrix of columns (A2, A1, A0), point(t) = S*v(t) for the Veronese point
    v(t) = (t0^2, t0*t1, t1^2) of the conic xz = y^2, whose chord through
    v(t) and v(s), with the bracket t0*s1 - t1*s0 divided out, is
    l(t, s) = (t1*s1, -(t0*s1 + t1*s0), t0*s0), the tangent for t = s
    (Richter-Gebert, *Perspectives on Projective Geometry*, the chapters on
    conics).  The meet S*(l(t, s) x l(u, w)) stays at the chart's size,
    without the large Gaussian common factor of `meet` of two `join`s.

    Vectors and parameters are held raw: `point` and `point_coefficients`
    are the scalar edge, and the generators call `_point` (or `_coords`,
    S*v(t) before content reduction), `_partner` and `_chord_meet` on raw
    pairs.  A Gaussian parameter is cleared to Gaussian
    integers of the same ratio, which scales the point by a positive
    rational that ProjPoint's content reduction removes.
    """

    __slots__ = ("conic", "base", "_coefficients")

    def __init__(self, conic: Conic, base: ProjPoint):
        if not conic.contains(base):
            raise ProjectiveError("parametrization base must lie on the conic")
        self.conic = conic
        self.base = base
        self._coefficients = conic.kernels.chart(conic.raw, base.raw)

    def point_coefficients(self) -> tuple:
        """The three coefficient vectors (A2, A1, A0) of the point map."""
        return tuple(map(self.conic.kernels.unpack, self._coefficients))

    def _as_pair(self, t) -> tuple:
        """The raw pair of a parameter given as a scalar or a homogeneous pair."""
        field = self.conic.field
        t0, t1 = t if isinstance(t, tuple) else (t, field.one())
        t0, t1 = field.coerce(t0), field.coerce(t1)
        if t0.is_zero() and t1.is_zero():
            raise ProjectiveError("(0 : 0) is not a parameter")
        return self.conic.kernels.param(t0, t1)

    def point(self, t) -> ProjPoint:
        return self._point(self._as_pair(t))

    def _point(self, pair) -> ProjPoint:
        return ProjPoint(self._coords(pair), self.conic.kernels)

    def _coords(self, pair) -> tuple:
        """S*v(t) for a raw pair t: the point's raw coordinates before content reduction."""
        t0, t1 = pair
        k = self.conic.kernels
        a2, a1, a0 = self._coefficients
        coords = k.combine3(k.mul(t0, t0), a2, k.mul(t0, t1), a1, k.mul(t1, t1), a0)
        if not any(coords):
            raise AssertionError("chart point map gave the zero vector; arithmetic bug")
        return coords

    def _chord_meet(self, t, s, u, w) -> ProjPoint:
        k = self.conic.kernels
        l, n = [k.vector(k.mul(p1, q1), k.neg(k.add(k.mul(p0, q1), k.mul(p1, q0))), k.mul(p0, q0))
                for (p0, p1), (q0, q1) in ((t, s), (u, w))]
        a2, a1, a0 = self._coefficients
        coords = k.combine3(k.minor(l, n, 0), a2, k.minor(l, n, 1), a1, k.minor(l, n, 2), a0)
        if not any(coords):
            raise DegenerateInputError("meet of coincident lines is undefined")
        return ProjPoint(coords, k)

    def _partner(self, t, w) -> tuple:
        """The raw parameter of the second conic point on the line through
        point(t) and m = S*w, for a raw pair t, chart coordinates w as a raw
        vector and any m other than point(t); t itself, up to scale, when
        that line is the tangent at point(t)."""
        k = self.conic.kernels
        t0, t1 = t
        w0, w1, w2 = k.entries(w)
        # the root 2*(w0*t1 - w1*t0 : w1*t1 - w2*t0), content-reduced; the
        # repeated entry leaves the content as it is
        u0 = k.add(k.mul(w0, t1), k.neg(k.mul(w1, t0)))
        u1 = k.add(k.mul(w1, t1), k.neg(k.mul(w2, t0)))
        u0, u1 = k.add(u0, u0), k.add(u1, u1)
        u0, u1, _ = k.entries(k.reduce_content(k.vector(u0, u1, u1)))
        return u0, u1


def homogenize_affine_conic(coefficients: Sequence, field) -> Conic:
    """The conic of A x^2 + B y^2 + Q xy + D x + E y + F = 0 for the six
    coefficients (A, B, Q, D, E, F), extended to the projective plane; (x, y)
    maps to (x : y : 1).  All six must be real and A, B, Q not all zero."""
    if len(coefficients) != 6:
        raise ProjectiveError("expected 6 affine coefficients")
    a, b, q, d, e, f = vals = tuple(map(field.coerce, coefficients))
    if not all(v.is_real() for v in vals):
        raise ProjectiveError("affine conic coefficients must be real")
    if a.is_zero() and b.is_zero() and q.is_zero():
        raise ProjectiveError("affine conic must be genuinely quadratic")
    half = (field.one() + field.one()).inv()
    q, d, e = q * half, d * half, e * half
    return Conic(((a, q, d), (q, b, e), (d, e, f)), field)


def transform_conic(t: Projectivity, conic: Conic) -> Conic:
    """Push the conic forward: p on C iff t(p) on the result.

    The new form is adj(T)^T M adj(T); with c_j the columns of adj(T), its
    row i is (c_i . M c_0, c_i . M c_1, c_i . M c_2)."""
    _require_same_field(t, conic)
    k = conic.kernels
    cols = _cofactors(t)
    images = tuple(k.matvec(conic.raw, c) for c in cols)
    return Conic(sum((k.matvec(images, c) for c in cols), ()), k)
