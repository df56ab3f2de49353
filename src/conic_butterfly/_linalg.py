"""Exact linear algebra over tuples of scalar objects: the generic formulas.

Vectors are length-3 tuples of scalars and matrices 3-tuples of rows; every
formula uses the scalar operators only, so it runs on either backend.  They
serve the cold constructions that read the public ``coords``/``form``/
``matrix`` accessors (``conic_through_five``, projectivity inverses and
products), the benchmark's kernel timings, and the tests as the oracle that
each backend's kernel table (``scalars.Kernels``) must match.  The geometry
itself computes on raw representations through those tables.  Nothing here
solves a linear system: every construction has a closed form.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, TypeVar

S = TypeVar("S")

Vec3 = Tuple[S, S, S]
Mat3 = Tuple[Vec3, Vec3, Vec3]


# ----------------------------------------------------------------------
# generic scalar formulas


def cross(a: Vec3, b: Vec3) -> Vec3:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        a1 * b2 - a2 * b1,
        a2 * b0 - a0 * b2,
        a0 * b1 - a1 * b0,
    )


def dot(a: Vec3, b: Vec3) -> S:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def det3(a: Vec3, b: Vec3, c: Vec3) -> S:
    return dot(a, cross(b, c))


def matvec(m: Mat3, v: Vec3) -> Vec3:
    return (dot(m[0], v), dot(m[1], v), dot(m[2], v))


def quad_form(m: Mat3, v: Vec3) -> S:
    return dot(v, matvec(m, v))


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


def adjugate(m: Mat3) -> Mat3:
    """Transposed cofactor matrix, so ``m @ adjugate(m) == det(m) * I``.

    Column j is the cross product of the two rows other than j."""
    c0, c1, c2 = cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1])
    return ((c0[0], c1[0], c2[0]), (c0[1], c1[1], c2[1]), (c0[2], c1[2], c2[2]))


def normalize(v: Sequence[S]) -> tuple:
    """v scaled so its first nonzero entry is one; v must not be zero."""
    inv = next(c for c in v if not c.is_zero()).inv()
    return tuple(c * inv for c in v)


def proportional(a: Sequence[S], b: Sequence[S]) -> bool:
    """Whether b is a nonzero multiple of a; a must not be zero."""
    k = next(i for i, c in enumerate(a) if not c.is_zero())
    if b[k].is_zero():
        return False
    return all((a[k] * b[i] - b[k] * a[i]).is_zero() for i in range(len(a)))


def scale_vec(s: S, v: Sequence[S]) -> tuple:
    return tuple(s * x for x in v)


# slot k of cross(a, b) is the 2x2 minor a[i]*b[j] - a[j]*b[i] over these (i, j)
_MINORS = ((1, 2), (2, 0), (0, 1))


def minor(a: Vec3, b: Vec3, k: int) -> S:
    """Slot k of cross(a, b), without the other two slots."""
    i, j = _MINORS[k]
    return a[i] * b[j] - a[j] * b[i]


def first_nonzero_minor(a: Vec3, b: Vec3) -> Optional[S]:
    """The first nonzero slot of cross(a, b), one minor at a time; None when
    a and b are proportional."""
    for k in range(3):
        m = minor(a, b, k)
        if not m.is_zero():
            return m
    return None


def combine(a: S, u: Vec3, b: S, v: Vec3) -> Vec3:
    """Entrywise a*u - b*v."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (a * u0 - b * v0, a * u1 - b * v1, a * u2 - b * v2)


def combine3(a: S, u: Vec3, b: S, v: Vec3, c: S, w: Vec3) -> Vec3:
    """Entrywise a*u + b*v + c*w."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    w0, w1, w2 = w
    return (a * u0 + b * v0 + c * w0, a * u1 + b * v1 + c * w1, a * u2 + b * v2 + c * w2)
