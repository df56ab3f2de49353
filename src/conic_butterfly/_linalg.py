"""Small exact linear algebra helpers over an arbitrary scalar backend.

Everything here works on plain tuples: vectors are length-3 tuples of
scalars, matrices are 3-tuples of row tuples.  No pivoting heuristics are
needed because the arithmetic is exact; ``nullspace`` is Gauss-Jordan
elimination that divides each pivot row by its pivot, using whatever field
division the backend provides.

Integer kernels.  ``cross``, ``dot``, ``minor``, ``first_nonzero_minor``
and the linear combinations ``combine`` (``a*u - b*v``) and ``combine3``
(``a*u + b*v + c*w``) run in the fuzz campaigns' inner loops, so each picks
one of three paths from the type of one input entry and the denominators
of its inputs, and from nothing else:

1. ``PrimeFieldElement``: the formula on raw residues, reduced once per
   result entry.
2. ``GaussianRational`` with ``d == 1`` in every entry (the coordinates
   ``reduce_content`` leaves): the formula on the raw ``(a, b)`` integer
   pairs, and each result wrapped once as ``(re, im, 1)``, which is
   canonical because ``gcd(re, im, 1) == 1``.
3. Anything else: the same formula over the scalar operators.

``first_nonzero_minor`` computes its minors on residues and wraps only the
one it returns; on the Gaussian backend it runs ``minor`` slot by slot.
``matvec`` and ``quad_form`` have their own residue paths and otherwise,
like ``matmul``, ``bilinear`` and ``det3``, are built from ``dot``;
``adjugate`` is three ``cross`` products, so each of them takes the paths
above piece by piece.  ``normalize`` (leading entry scaled to one) has an
integer path of its own.  Every path computes the same exact value and
both backends keep one canonical representation per value, so the choice
of path never shows in a result.  One entry picks the backend, so inputs
must not mix backends; the public constructions in ``projective`` and
``conics`` reject mixed inputs with ``TypeError`` before they reach these
kernels.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, TypeVar

from .scalars import GaussianRational as _G
from .scalars import PrimeFieldElement as _P
from .scalars import _make as _gmake
from .scalars import _make_residue as _pmake
from .scalars import _reduced

S = TypeVar("S")

Vec3 = Tuple[S, S, S]
Mat3 = Tuple[Vec3, Vec3, Vec3]

_MOD = _P.MODULUS


def cross(a: Vec3, b: Vec3) -> Vec3:
    a0, a1, a2 = a
    b0, b1, b2 = b
    t = type(a0)
    if t is _P:
        a0, a1, a2 = a0.residue, a1.residue, a2.residue
        b0, b1, b2 = b0.residue, b1.residue, b2.residue
        return (
            _pmake((a1 * b2 - a2 * b1) % _MOD),
            _pmake((a2 * b0 - a0 * b2) % _MOD),
            _pmake((a0 * b1 - a1 * b0) % _MOD),
        )
    if t is _G and a0.d == a1.d == a2.d == b0.d == b1.d == b2.d == 1:
        p0, q0, p1, q1, p2, q2 = a0.a, a0.b, a1.a, a1.b, a2.a, a2.b
        r0, s0, r1, s1, r2, s2 = b0.a, b0.b, b1.a, b1.b, b2.a, b2.b
        return (
            _gmake(p1 * r2 - q1 * s2 - p2 * r1 + q2 * s1, p1 * s2 + q1 * r2 - p2 * s1 - q2 * r1, 1),
            _gmake(p2 * r0 - q2 * s0 - p0 * r2 + q0 * s2, p2 * s0 + q2 * r0 - p0 * s2 - q0 * r2, 1),
            _gmake(p0 * r1 - q0 * s1 - p1 * r0 + q1 * s0, p0 * s1 + q0 * r1 - p1 * s0 - q1 * r0, 1),
        )
    return (
        a1 * b2 - a2 * b1,
        a2 * b0 - a0 * b2,
        a0 * b1 - a1 * b0,
    )


def dot(a: Vec3, b: Vec3) -> S:
    a0, a1, a2 = a
    b0, b1, b2 = b
    t = type(a0)
    if t is _P:
        return _pmake((a0.residue * b0.residue + a1.residue * b1.residue
                       + a2.residue * b2.residue) % _MOD)
    if t is _G and a0.d == a1.d == a2.d == b0.d == b1.d == b2.d == 1:
        p0, q0, p1, q1, p2, q2 = a0.a, a0.b, a1.a, a1.b, a2.a, a2.b
        r0, s0, r1, s1, r2, s2 = b0.a, b0.b, b1.a, b1.b, b2.a, b2.b
        return _gmake(p0 * r0 - q0 * s0 + p1 * r1 - q1 * s1 + p2 * r2 - q2 * s2,
                      p0 * s0 + q0 * r0 + p1 * s1 + q1 * r1 + p2 * s2 + q2 * r2, 1)
    return a0 * b0 + a1 * b1 + a2 * b2


def det3(a: Vec3, b: Vec3, c: Vec3) -> S:
    return dot(a, cross(b, c))


def matvec(m: Mat3, v: Vec3) -> Vec3:
    if type(v[0]) is _P:
        v0, v1, v2 = v[0].residue, v[1].residue, v[2].residue
        return (
            _pmake((m[0][0].residue * v0 + m[0][1].residue * v1 + m[0][2].residue * v2) % _MOD),
            _pmake((m[1][0].residue * v0 + m[1][1].residue * v1 + m[1][2].residue * v2) % _MOD),
            _pmake((m[2][0].residue * v0 + m[2][1].residue * v1 + m[2][2].residue * v2) % _MOD),
        )
    return (dot(m[0], v), dot(m[1], v), dot(m[2], v))


def quad_form(m: Mat3, v: Vec3) -> S:
    if type(v[0]) is _P:
        v0, v1, v2 = v[0].residue, v[1].residue, v[2].residue
        return _pmake((v0 * (m[0][0].residue * v0 + m[0][1].residue * v1 + m[0][2].residue * v2)
                       + v1 * (m[1][0].residue * v0 + m[1][1].residue * v1 + m[1][2].residue * v2)
                       + v2 * (m[2][0].residue * v0 + m[2][1].residue * v1 + m[2][2].residue * v2))
                      % _MOD)
    return dot(v, matvec(m, v))


def bilinear(m: Mat3, u: Vec3, v: Vec3) -> S:
    return dot(u, matvec(m, v))


def transpose(m: Mat3) -> Mat3:
    return (
        (m[0][0], m[1][0], m[2][0]),
        (m[0][1], m[1][1], m[2][1]),
        (m[0][2], m[1][2], m[2][2]),
    )


def matmul(a: Mat3, b: Mat3) -> Mat3:
    bt = transpose(b)
    return (
        (dot(a[0], bt[0]), dot(a[0], bt[1]), dot(a[0], bt[2])),
        (dot(a[1], bt[0]), dot(a[1], bt[1]), dot(a[1], bt[2])),
        (dot(a[2], bt[0]), dot(a[2], bt[1]), dot(a[2], bt[2])),
    )


def det_mat3(m: Mat3) -> S:
    return det3(m[0], m[1], m[2])


def adjugate(m: Mat3) -> Mat3:
    """Transposed cofactor matrix, so ``m @ adjugate(m) == det(m) * I``.

    Column j is the cross product of the two rows other than j."""
    c0, c1, c2 = cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1])
    return ((c0[0], c1[0], c2[0]), (c0[1], c1[1], c2[1]), (c0[2], c1[2], c2[2]))


def normalize(v: Sequence[S]) -> tuple:
    """v scaled so its first nonzero entry is one; v must not be zero."""
    k = next(i for i, c in enumerate(v) if not c.is_zero())
    lead = v[k]
    if type(lead) is _G and all(c.d == 1 for c in v):
        # c / lead = c * conj(lead) / norm(lead): one reduction per entry
        p, q = lead.a, lead.b
        norm = p * p + q * q
        return tuple(_reduced(c.a * p + c.b * q, c.b * p - c.a * q, norm) for c in v)
    inv = lead.inv()
    return tuple(c * inv for c in v)


def proportional(a: Sequence[S], b: Sequence[S]) -> bool:
    """Whether b is a nonzero multiple of a; a must not be zero."""
    k = next(i for i, c in enumerate(a) if not c.is_zero())
    if b[k].is_zero():
        return False
    return all((a[k] * b[i] - b[k] * a[i]).is_zero() for i in range(len(a)))


def scale_vec(s: S, v: Sequence[S]) -> tuple:
    return tuple(s * x for x in v)


def add_vec(a: Sequence[S], b: Sequence[S]) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


# slot k of cross(a, b) is the 2x2 minor a[i]*b[j] - a[j]*b[i] over these (i, j)
_MINORS = ((1, 2), (2, 0), (0, 1))


def minor(a: Vec3, b: Vec3, k: int) -> S:
    """Slot k of cross(a, b), without the other two slots."""
    i, j = _MINORS[k]
    x, y, u, w = a[i], b[j], a[j], b[i]
    t = type(x)
    if t is _P:
        return _pmake((x.residue * y.residue - u.residue * w.residue) % _MOD)
    if t is _G and x.d == y.d == u.d == w.d == 1:
        return _gmake(x.a * y.a - x.b * y.b - u.a * w.a + u.b * w.b,
                      x.a * y.b + x.b * y.a - u.a * w.b - u.b * w.a, 1)
    return x * y - u * w


def first_nonzero_minor(a: Vec3, b: Vec3) -> Optional[S]:
    """The first nonzero slot of cross(a, b), one minor at a time; None when
    a and b are proportional."""
    if type(a[0]) is _P:
        x0, x1, x2 = a[0].residue, a[1].residue, a[2].residue
        y0, y1, y2 = b[0].residue, b[1].residue, b[2].residue
        m = (x1 * y2 - x2 * y1) % _MOD or (x2 * y0 - x0 * y2) % _MOD or (x0 * y1 - x1 * y0) % _MOD
        return _pmake(m) if m else None
    for k in range(3):
        m = minor(a, b, k)
        if not m.is_zero():
            return m
    return None


def combine(a: S, u: Vec3, b: S, v: Vec3) -> Vec3:
    """Entrywise a*u - b*v."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    t = type(a)
    if t is _P:
        a, b = a.residue, b.residue
        return (
            _pmake((a * u0.residue - b * v0.residue) % _MOD),
            _pmake((a * u1.residue - b * v1.residue) % _MOD),
            _pmake((a * u2.residue - b * v2.residue) % _MOD),
        )
    if t is _G and a.d == b.d == u0.d == u1.d == u2.d == v0.d == v1.d == v2.d == 1:
        p, q, r, s = a.a, a.b, b.a, b.b
        return (
            _gmake(p * u0.a - q * u0.b - r * v0.a + s * v0.b, p * u0.b + q * u0.a - r * v0.b - s * v0.a, 1),
            _gmake(p * u1.a - q * u1.b - r * v1.a + s * v1.b, p * u1.b + q * u1.a - r * v1.b - s * v1.a, 1),
            _gmake(p * u2.a - q * u2.b - r * v2.a + s * v2.b, p * u2.b + q * u2.a - r * v2.b - s * v2.a, 1),
        )
    return (a * u0 - b * v0, a * u1 - b * v1, a * u2 - b * v2)


def combine3(a: S, u: Vec3, b: S, v: Vec3, c: S, w: Vec3) -> Vec3:
    """Entrywise a*u + b*v + c*w."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    w0, w1, w2 = w
    t = type(a)
    if t is _P:
        a, b, c = a.residue, b.residue, c.residue
        return (
            _pmake((a * u0.residue + b * v0.residue + c * w0.residue) % _MOD),
            _pmake((a * u1.residue + b * v1.residue + c * w1.residue) % _MOD),
            _pmake((a * u2.residue + b * v2.residue + c * w2.residue) % _MOD),
        )
    if (t is _G and a.d == b.d == c.d == 1 and u0.d == u1.d == u2.d == 1
            and v0.d == v1.d == v2.d == 1 and w0.d == w1.d == w2.d == 1):
        p, q, r, s, g, h = a.a, a.b, b.a, b.b, c.a, c.b
        return (
            _gmake(p * u0.a - q * u0.b + r * v0.a - s * v0.b + g * w0.a - h * w0.b,
                   p * u0.b + q * u0.a + r * v0.b + s * v0.a + g * w0.b + h * w0.a, 1),
            _gmake(p * u1.a - q * u1.b + r * v1.a - s * v1.b + g * w1.a - h * w1.b,
                   p * u1.b + q * u1.a + r * v1.b + s * v1.a + g * w1.b + h * w1.a, 1),
            _gmake(p * u2.a - q * u2.b + r * v2.a - s * v2.b + g * w2.a - h * w2.b,
                   p * u2.b + q * u2.a + r * v2.b + s * v2.a + g * w2.b + h * w2.a, 1),
        )
    return (a * u0 + b * v0 + c * w0, a * u1 + b * v1 + c * w1, a * u2 + b * v2 + c * w2)


def nullspace(rows: Sequence[Sequence[S]], width: int, field) -> list:
    """Basis of the right kernel of the given row list, by Gauss elimination.

    Rows may be any length-``width`` sequences over the backend ``field``.
    Returns a list of kernel basis vectors (tuples of scalars); empty when
    the rows have full column rank.
    """
    work = [list(r) for r in rows]
    pivot_cols: list[int] = []
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

    free_cols = [c for c in range(width) if c not in pivot_cols]
    basis = []
    zero, one = field.zero(), field.one()
    for free in free_cols:
        vec = [zero] * width
        vec[free] = one
        for row_idx, col in enumerate(pivot_cols):
            vec[col] = -work[row_idx][free]
        basis.append(tuple(vec))
    return basis
