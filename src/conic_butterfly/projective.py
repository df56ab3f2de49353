"""Incidence geometry of the projective plane over an exact scalar field.

Points and lines are homogeneous coordinate triples identified up to a
nonzero scalar factor.  Equality, incidence, join and meet are exact: two
objects coincide precisely when the cross product of their triples
vanishes.  Cross-ratio values live on the projective line over the scalar
field, so infinity is an ordinary value (1 : 0) and the harmonic position
is (-1 : 1).

The cross-ratio convention is pinned once for the whole package.  Writing
(alpha_i : beta_i) for the chart coordinates of p_i on the common line and
[ij] = alpha_i*beta_j - alpha_j*beta_i,

    cr(p1, p2, p3, p4) = ([12]*[34] : [14]*[32])

which equals -1 exactly when {p1, p3} and {p2, p4} are harmonic pairs.
"""

from __future__ import annotations

from itertools import combinations
from random import Random
from typing import Optional, Sequence

from .scalars import GaussianRational, Kernels, _raw_new, thirds


class ProjectiveError(ValueError):
    """Geometric precondition failure (non-incidence, bad input shape)."""


class DegenerateInputError(ProjectiveError):
    """Inputs that collapse the construction (coincident points, singular maps)."""


def _require_same_field(a, b) -> None:
    if a.kernels is not b.kernels:
        raise TypeError("cannot mix scalar backends in one construction")


def _coerced(entries: tuple, field) -> tuple:
    """(kernel table, scalars) of the entries coerced to `field`."""
    return field.kernels, tuple(field.coerce(e) for e in entries)


def _cofactors(m) -> tuple:
    """The columns of adj(M) for a matrix object's raw rows: column j is the
    cross product of the two rows other than j."""
    k = m.kernels
    m0, m1, m2 = m.raw
    return (k.cross(m1, m2), k.cross(m2, m0), k.cross(m0, m1))


_LAYOUT = "({} : {} : {})"  # the text of a point or line from its three literals


class _Triple:
    """Shared plumbing of points and lines: a content-reduced homogeneous
    triple in the backend's raw form (`raw`), computed on through the
    backend's kernel table (`kernels`).  `coords` builds the scalars; the
    first `str` is kept in `_text`, and so is a parsed text that is already
    what `str` prints: the literals' printed texts, set in `str`'s layout,
    equal it and lead with `1`.  Such a text's raw vector, its parts in
    lowest terms over their lcm with a lead entry of 1, has content 1, so
    it is kept without `reduce_content`."""

    __slots__ = ("raw", "kernels", "_text")

    def __init__(self, coords: Sequence, field):
        """`coords` are three scalars of `field`; inside the package `field`
        may instead be a kernel table, and then `coords` is already that
        table's raw vector."""
        k = field
        if type(k) is not Kernels:
            coords = tuple(coords)
            if len(coords) != 3:
                raise ProjectiveError(f"expected 3 homogeneous coordinates, got {len(coords)}")
            k, coords = _coerced(coords, field)
            coords = k.pack(coords)
        raw = k.reduce_content(coords)
        if not any(raw):
            raise ProjectiveError("(0 : 0 : 0) is not a projective object")
        self.raw = raw
        self.kernels = k

    @property
    def coords(self) -> tuple:
        return self.kernels.unpack(self.raw)

    @property
    def field(self):
        return self.kernels.field

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _require_same_field(self, other)
        return self.kernels.first_nonzero_minor(self.raw, other.raw) is None

    def __hash__(self):
        return hash((type(self).__name__,) + self.canonical())

    def canonical(self) -> tuple:
        """Coordinates rescaled so the first nonzero entry is 1."""
        return self.kernels.normalize(self.raw)

    def is_real(self) -> bool:
        """Whether conjugation fixes the object: it is real over its lead entry."""
        k = self.kernels
        return k.real(self.raw) or k.real(k.over_lead(self.raw))

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            text = self._text = _LAYOUT.format(*self.kernels.text(self.raw))
            return text

    def __repr__(self):
        return f"{type(self).__name__}{self}"

    @classmethod
    def parse(cls, text: str, field):
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise ProjectiveError(f"expected '(x : y : z)', got {text!r}")
        parts = t[1:-1].split(":")
        if len(parts) != 3:
            raise ProjectiveError(f"expected 3 coordinates in {text!r}")
        k = field.kernels
        raw, texts = k.parse(parts)
        # printed texts hold no ':' and no blank, so one comparison tests each
        # literal (blanks around it aside) and the layout; (0 : 0 : 0) has no 1
        if _LAYOUT.format(*texts) == t and next((x for x in texts if x != "0"), "0") == "1":
            obj = _raw_new(cls)
            obj.raw, obj.kernels, obj._text = raw, k, t
            return obj
        return cls(raw, k)


class ProjPoint(_Triple):
    """A point of the projective plane."""

    __slots__ = ()

    @classmethod
    def affine(cls, x, y, field) -> "ProjPoint":
        return cls((field.coerce(x), field.coerce(y), field.one()), field)


class ProjLine(_Triple):
    """A line of the projective plane; incidence is the dot product vanishing."""

    __slots__ = ()


def incident(p: ProjPoint, l: ProjLine) -> bool:
    _require_same_field(p, l)
    k = p.kernels
    return k.is_zero(k.dot(p.raw, l.raw))


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    _require_same_field(p, q)
    coords = p.kernels.cross(p.raw, q.raw)
    if not any(coords):
        raise DegenerateInputError("join of coincident points is undefined")
    return ProjLine(coords, p.kernels)


def meet(k: ProjLine, l: ProjLine) -> ProjPoint:
    _require_same_field(k, l)
    coords = k.kernels.cross(k.raw, l.raw)
    if not any(coords):
        raise DegenerateInputError("meet of coincident lines is undefined")
    return ProjPoint(coords, k.kernels)


def collinearity_residual(p: ProjPoint, q: ProjPoint, r: ProjPoint):
    """The raw 3x3 determinant; zero iff the points are collinear."""
    _require_same_field(p, q)
    _require_same_field(p, r)
    k = p.kernels
    return k.scalar(k.dot(p.raw, k.cross(q.raw, r.raw)))


class CrossRatioValue:
    """An element (num : den) of the projective line over the scalar field.

    Infinity is (1 : 0).  Equality is up to scale, so reports comparing
    cross-ratios never divide.  Values are immutable by convention, as
    `GaussianRational` states, so the first `str` is kept in `_text`.
    """

    __slots__ = ("num", "den", "field", "_text")

    def __init__(self, num, den, field):
        self.num = field.coerce(num)
        self.den = field.coerce(den)
        self.field = field
        if self.num.is_zero() and self.den.is_zero():
            raise ProjectiveError("(0 : 0) is not a cross-ratio value")

    @classmethod
    def infinity(cls, field) -> "CrossRatioValue":
        return cls(field.one(), field.zero(), field)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_harmonic(self) -> bool:
        return (self.num + self.den).is_zero()

    def plus_one(self) -> "CrossRatioValue":
        """cr + 1 as a projective value; zero exactly at the harmonic position."""
        return CrossRatioValue(self.num + self.den, self.den, self.field)

    def __eq__(self, other):
        if not isinstance(other, CrossRatioValue):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            den, num = self.den, self.num
            if self.is_harmonic():  # -1 from (1 : -1), not from the pair cross_ratio scaled
                den = self.field.one()
                num = -den
            k = self.field.kernels
            text = self._text = "inf" if den.is_zero() else k.text(k.pack((den, num)))[1]
            return text

    def __repr__(self):
        return f"CrossRatioValue({self})"


def cross_ratio(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint, p4: ProjPoint) -> CrossRatioValue:
    """Cross-ratio of four collinear points, at most two of them coincident.

    Pinned convention: ([12]*[34] : [14]*[32]); see the module docstring.
    Two coincident points are fine and produce (0:1), (1:0) or (1:1);
    three coincident points leave the value undefined and raise.

    The first pair with a nonzero cross product n spans the line.  At the
    first nonzero slot k of n, every bracket is the single minor
    cross(pi, pj)[k]: the chart brackets over that pair are c*[ij] with
    c = n[k], so the pair is returned scaled by c^2 to keep it the chart
    pair exactly.  On the line two points coincide iff their bracket is
    zero, and three coincide iff both num and den vanish.
    """
    points = (p1, p2, p3, p4)
    for q in points[1:]:
        _require_same_field(p1, q)
    kern = p1.kernels
    coords = tuple(q.raw for q in points)
    for i, j in combinations(range(4), 2):
        n = kern.cross(coords[i], coords[j])
        k = kern.lead(n)
        if k is not None:
            break
    else:
        raise DegenerateInputError("cross-ratio is undefined with three coincident points")
    for q in range(4):
        if q != i and q != j and not kern.is_zero(kern.dot(coords[q], n)):
            raise ProjectiveError("cross-ratio requires four collinear points")

    def bracket(x: int, y: int):
        return kern.minor(coords[x], coords[y], k)

    mul = kern.mul
    num = mul(bracket(0, 1), bracket(2, 3))
    den = mul(bracket(0, 3), bracket(2, 1))
    if kern.is_zero(num) and kern.is_zero(den):
        raise DegenerateInputError("cross-ratio is undefined with three coincident points")
    c = kern.entries(n)[k]  # bracket(i, j), slot k of n
    cc = mul(c, c)
    return CrossRatioValue(kern.scalar(mul(cc, num)), kern.scalar(mul(cc, den)), p1.field)


def harmonic_conjugate(u: ProjPoint, v: ProjPoint, w: ProjPoint) -> ProjPoint:
    """The point w' with cross_ratio(w', u, w, v) = -1.

    In a chart where w = alpha*u + beta*v the conjugate is
    alpha*u - beta*v; the map is an involution and is undefined at u and v
    themselves.  At the first nonzero slot k of cross(u, v), alpha and beta
    are the minors cross(w, v)[k] and cross(u, w)[k]; once w is on the line,
    w = u iff beta = 0 and w = v iff alpha = 0.
    """
    _require_same_field(u, v)
    _require_same_field(u, w)
    kern = u.kernels
    n = kern.cross(u.raw, v.raw)
    k = kern.lead(n)
    if k is None:
        raise DegenerateInputError("harmonic conjugate needs a distinct reference pair")
    if not kern.is_zero(kern.dot(w.raw, n)):
        raise ProjectiveError("harmonic conjugate requires collinear input")
    alpha = kern.minor(w.raw, v.raw, k)
    beta = kern.minor(u.raw, w.raw, k)
    if kern.is_zero(alpha) or kern.is_zero(beta):
        raise DegenerateInputError("harmonic conjugate is undefined at the reference points")
    return ProjPoint(kern.combine(alpha, u.raw, beta, v.raw), kern)


class _Matrix:
    """Shared plumbing of projectivities and conics: a 3x3 matrix up to scale,
    held as three content-reduced raw rows (`raw`) and computed on through
    the backend's kernel table (`kernels`)."""

    __slots__ = ("raw", "kernels")

    def _set_rows(self, rows, field, shape_error: str, symmetric: bool = False):
        """Store the matrix and return its raw determinant.  `rows` are three
        rows of scalars of `field`; inside the package `field` may instead be
        a kernel table, and then `rows` is the flat raw tuple of the three
        rows."""
        k = field
        if type(k) is not Kernels:
            rows = tuple(tuple(r) for r in rows)
            if len(rows) != 3 or any(len(r) != 3 for r in rows):
                raise ProjectiveError(shape_error)
            k, flat = _coerced(sum(rows, ()), field)
            if symmetric and any(flat[3 * i + j] != flat[3 * j + i] for i, j in ((0, 1), (0, 2), (1, 2))):
                raise ProjectiveError("conic matrix must be symmetric")
            rows = k.pack(flat)
        m = self.raw = thirds(k.reduce_content(rows))
        self.kernels = k
        return k.dot(m[0], k.cross(m[1], m[2]))

    @property
    def field(self):
        return self.kernels.field

    def _normalized(self) -> tuple:
        """The flat matrix rescaled so its first nonzero entry is 1."""
        return self.kernels.normalize(sum(self.raw, ()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _require_same_field(self, other)
        return self._normalized() == other._normalized()

    def __hash__(self):
        return hash((type(self).__name__,) + self._normalized())


class RetryCapError(ProjectiveError):
    """A generator rejected more draws than its budget allows."""


class RetryBudget:
    """Counts rejected draws; raises past CAP so pathological seeds surface."""

    __slots__ = ("spent",)
    CAP = 200

    def __init__(self):
        self.spent = 0

    def tick(self, what: str = "draw") -> None:
        self.spent += 1
        if self.spent > self.CAP:
            raise RetryCapError(f"rejected {self.spent} draws (last: {what}); giving up")


class Projectivity(_Matrix):
    """An invertible linear map of the plane, stored as a 3x3 matrix up to scale.

    Points map by x -> Mx and lines by l -> adj(M)^T l, which is the
    inverse-transpose up to the determinant factor, so incidence is
    preserved exactly.
    """

    __slots__ = ()

    def __init__(self, rows, field):
        d = self._set_rows(rows, field, "a projectivity needs a 3x3 matrix")
        if self.kernels.is_zero(d):
            raise DegenerateInputError("singular matrix is not a projectivity")

    @property
    def matrix(self) -> tuple:
        return tuple(map(self.kernels.unpack, self.raw))

    def apply(self, p: ProjPoint) -> ProjPoint:
        _require_same_field(self, p)
        return ProjPoint(self.kernels.matvec(self.raw, p.raw), self.kernels)

    def __repr__(self):
        return f"Projectivity({self.matrix!r})"

    @classmethod
    def random(cls, rng: Random, field=GaussianRational, height_bound: int = 10, *, real: bool = False,
               budget: Optional[RetryBudget] = None) -> "Projectivity":
        """A random invertible map; entries drawn at the given height, retried if singular.

        Each singular draw ticks `budget`, a fresh `RetryBudget` when none is
        given, so a pathological rng surfaces as RetryCapError instead of
        looping forever.
        """
        budget = budget if budget is not None else RetryBudget()
        k = field.kernels
        while True:
            try:
                return cls(k.random(rng, height_bound, 9, real), k)
            except DegenerateInputError:
                budget.tick("singular projectivity")
