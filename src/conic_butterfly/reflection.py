"""Harmonic reflection over a conic chord.

The frame is a non-tangent axis line k together with its pole p.  The
reflection is the harmonic homology with axis k and center p,

    H = (k.p) I - 2 p k^T,   so   y -> (k.p) y - 2 (k.y) p,

which sends y to the harmonic conjugate of y with respect to p and
n = k iff py.  It fixes k point-wise, fixes the pencil of lines through p
line-wise, preserves the conic, and H^2 = (k.p)^2 I makes it an
involution.  H fixes p as well, but the harmonic construction has no
answer there, so the reflection stays undefined at the pole itself.  The
route never uses a cross-ratio, so it is an independent witness for the
harmonic claims.

The chord endpoints u, v = k iff conic are not part of the frame: they are
often not representable in the scalar field, and only the sack lemma names
them, so its checker takes them as arguments.
"""

from __future__ import annotations

from .conics import Conic
from .projective import DegenerateInputError, ProjLine, ProjPoint, _require_same_field


class ReflectionFrame:
    """Axis + pole pair driving the reflection; built from the conic and axis.

    `kp` is k.p in the backend's raw form."""

    __slots__ = ("conic", "axis", "pole", "kp")

    def __init__(self, conic: Conic, axis: ProjLine):
        pole = conic.pole(axis)  # pole() checks the fields agree
        k = conic.kernels
        kp = k.dot(axis.raw, pole.raw)
        if k.is_zero(kp):
            raise DegenerateInputError("axis is tangent to the conic; the reflection degenerates")
        self.conic = conic
        self.axis = axis
        self.pole = pole
        self.kp = kp  # nonzero because the axis is not tangent

    def reflect_point(self, y: ProjPoint) -> ProjPoint:
        """H y, scaled by s = the first nonzero slot of cross(p, y).

        s is what tells y from the pole, and it makes the coordinates exactly
        those of the harmonic conjugate of y over (p, meet(k, join(p, y))).
        """
        _require_same_field(self.pole, y)
        k = y.kernels
        s = k.first_nonzero_minor(self.pole.raw, y.raw)
        if s is None:
            raise DegenerateInputError("reflection is undefined at the pole")
        ky = k.dot(self.axis.raw, y.raw)
        if k.is_zero(ky):
            return y
        return ProjPoint(k.combine(k.mul(s, self.kp), y.raw, k.mul(s, k.add(ky, ky)),
                                   self.pole.raw), k)

    def reflect_line(self, l: ProjLine) -> ProjLine:
        """H^T l = (k.p) l - 2 (p.l) k: lines map by H^-T, which is H^T up to
        scale because H^2 = (k.p)^2 I.  A line through the pole is its own
        image and comes back as it is."""
        _require_same_field(self.pole, l)
        k = l.kernels
        pl = k.dot(self.pole.raw, l.raw)
        if k.is_zero(pl):
            return l
        return ProjLine(k.combine(self.kp, l.raw, k.add(pl, pl), self.axis.raw), k)
