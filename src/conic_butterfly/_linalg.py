"""Small exact linear algebra helpers over an arbitrary scalar backend.

Everything here works on plain tuples: vectors are length-3 tuples of
scalars, matrices are 3-tuples of row tuples.  No pivoting heuristics are
needed because the arithmetic is exact; ``nullspace`` is Gauss-Jordan
elimination that divides each pivot row by its pivot, using whatever field
division the backend provides.
"""

from __future__ import annotations

from typing import Sequence, Tuple, TypeVar

from .scalars import PrimeFieldElement as _P

S = TypeVar("S")

Vec3 = Tuple[S, S, S]
Mat3 = Tuple[Vec3, Vec3, Vec3]

# The prime campaigns hit cross/dot/matvec in the million-call range; working
# on raw residues and reducing once per entry roughly halves their cost.
# Vectors are backend-homogeneous by construction, so testing one entry is
# enough to pick the path.
_MOD = _P.MODULUS
_make = _P._make


def cross(a: Vec3, b: Vec3) -> Vec3:
    if type(a[0]) is _P:
        a0, a1, a2 = a[0].residue, a[1].residue, a[2].residue
        b0, b1, b2 = b[0].residue, b[1].residue, b[2].residue
        return (
            _make((a1 * b2 - a2 * b1) % _MOD),
            _make((a2 * b0 - a0 * b2) % _MOD),
            _make((a0 * b1 - a1 * b0) % _MOD),
        )
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a: Vec3, b: Vec3) -> S:
    if type(a[0]) is _P:
        return _make((a[0].residue * b[0].residue
                      + a[1].residue * b[1].residue
                      + a[2].residue * b[2].residue) % _MOD)
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def det3(a: Vec3, b: Vec3, c: Vec3) -> S:
    return dot(a, cross(b, c))


def matvec(m: Mat3, v: Vec3) -> Vec3:
    if type(v[0]) is _P:
        v0, v1, v2 = v[0].residue, v[1].residue, v[2].residue
        return (
            _make((m[0][0].residue * v0 + m[0][1].residue * v1 + m[0][2].residue * v2) % _MOD),
            _make((m[1][0].residue * v0 + m[1][1].residue * v1 + m[1][2].residue * v2) % _MOD),
            _make((m[2][0].residue * v0 + m[2][1].residue * v1 + m[2][2].residue * v2) % _MOD),
        )
    return (dot(m[0], v), dot(m[1], v), dot(m[2], v))


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
    """Transposed cofactor matrix, so ``m @ adjugate(m) == det(m) * I``."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def quad_form(m: Mat3, v: Vec3) -> S:
    if type(v[0]) is _P:
        v0, v1, v2 = v[0].residue, v[1].residue, v[2].residue
        return _make((v0 * (m[0][0].residue * v0 + m[0][1].residue * v1 + m[0][2].residue * v2)
                      + v1 * (m[1][0].residue * v0 + m[1][1].residue * v1 + m[1][2].residue * v2)
                      + v2 * (m[2][0].residue * v0 + m[2][1].residue * v1 + m[2][2].residue * v2))
                     % _MOD)
    return dot(v, matvec(m, v))


def bilinear(m: Mat3, u: Vec3, v: Vec3) -> S:
    return dot(u, matvec(m, v))


def scale_vec(s: S, v: Sequence[S]) -> tuple:
    return tuple(s * x for x in v)


def add_vec(a: Sequence[S], b: Sequence[S]) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


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
