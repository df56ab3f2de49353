"""Three generic formulas on tuples of scalar objects: ``cross``, ``dot`` and
``matvec``.

Vectors are length-3 tuples of scalars and matrices 3-tuples of rows; each
formula uses the scalar operators only, so it runs on either backend.  The
package itself computes on raw representations through each backend's kernel
table (``scalars.Kernels``) and imports nothing from here.  The module exists
only because ``perfbench/kernels.py`` imports these three names to time them;
once the benchmark times the kernel tables instead, it can go.
"""

from __future__ import annotations

from typing import Tuple, TypeVar

S = TypeVar("S")

Vec3 = Tuple[S, S, S]
Mat3 = Tuple[Vec3, Vec3, Vec3]


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


def matvec(m: Mat3, v: Vec3) -> Vec3:
    return (dot(m[0], v), dot(m[1], v), dot(m[2], v))
