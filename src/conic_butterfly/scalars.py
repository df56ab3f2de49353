"""Exact scalar backends for the projective kernel.

Two interchangeable scalar types, on the common base ``FieldContract``, cover
every computation:

* ``GaussianRational`` -- complex numbers with rational real and imaginary
  parts, stored as one canonical integer triple ``(a, b, d)`` meaning
  ``(a + b*i) / d``.  This is the ground-truth backend: every operation is
  exact and every value has one canonical representation.
* ``PrimeFieldElement`` -- integers modulo a fixed 61-bit prime.  Much
  faster, but a vanishing result certifies an algebraic identity only with
  Schwartz-Zippel confidence (error at most degree/p per random trial), so
  it is reserved for high-volume randomized campaigns.

Neither backend offers square roots.  The geometry layers are arranged so
that every construction stays inside the field.

Kernel tables.  Each backend owns one ``Kernels`` table (its ``kernels``
attribute) over a raw representation, and points, lines, conic forms,
projectivity matrices and chart vectors hold raw tuples and compute through
it: a prime vector is a tuple of ints mod p and a prime scalar one int; a
Gaussian vector is the flat tuple ``(re0, im0, re1, im1, ...)`` of
Gaussian-integer parts, kept content-reduced, and a Gaussian scalar one
``(re, im)`` pair.  A matrix is the tuple of its three raw rows.  Scalar
objects are built only at the edge (``pack``, ``unpack``, ``scalar``).

Text codec.  A Gaussian literal is ``x``, ``yi`` or ``x+yi`` / ``x-yi``
where each part is an integer or ``n/d``.  ``parse`` reads the parts with
``int()`` and builds the canonical triple with one reduction; ``str``
prints each part in lowest terms with one ``gcd(n, d)``; ``random`` draws
each part as ``randint(-h, h) / randint(1, h)`` and reduces once, with
CPython's rejection loop on ``getrandbits`` in place of ``randint``.  None of
them builds a ``Fraction``; ``re``, ``im`` and the constructor still accept
and return them.  Prime residues are plain decimal integers.  Integers of
any size print in exact decimal, and ``parse`` keeps refusing digit strings
past the interpreter's limit.  The kernel tables' ``text`` and ``parse``
are the same codec on raw vectors, with no scalar objects: points, lines
and cross-ratio values print and read through them, and ``canonical()``
stays for hashing and as the tests' oracle.  ``parse`` also returns the
text ``str`` prints for each literal's value: the printer is the only
spelling rule, so a parsed point or line that those texts spell keeps its text.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import not_
from random import Random
from typing import Union

RationalLike = Union[int, Fraction, str]


class ScalarDivisionError(ZeroDivisionError):
    """Inversion of zero, surfaced as a distinct error type."""


class ScalarParseError(ValueError):
    """Scalar text that does not match the serialization grammar."""


class FieldContract:
    """The base class of both scalar backends, with what they share.

    A backend adds ``__add__``, ``__neg__``, ``__mul__``, ``inv``, ``conjugate``,
    ``is_zero``, ``is_real``, ``__eq__``, ``__hash__`` and ``__str__``, the
    classmethods ``parse`` and ``random``, the number types ``coerce`` wraps
    with the constructor (``_numbers``), and its ``Kernels`` table as the
    class attribute ``kernels``; the base derives subtraction and division
    from them.  Conjugation must be a field automorphism; on the prime field
    it is the identity.
    """

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def one(cls):
        return cls(1)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, cls._numbers):
            return cls(value)
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to {cls.__name__}")

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + -other

    def __truediv__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self * other.inv()

    def __repr__(self):
        return f"{type(self).__name__}({self})"


_RAT = r"[+-]?\d+(?:/\d+)?"
# x, yi or x+yi: the first part, then the signed second part and the i
_LITERAL_RE = re.compile(rf"^({_RAT})(?:([+-]\d+(?:/\d+)?)?(i))?$")


def _randbelow(getrandbits, n: int) -> int:
    """A uniform int in [0, n) for n > 0 by CPython's rejection loop, the one
    behind ``randrange(n)`` and ``randint``: the same draws from the same
    state, and the same state after, without their argument handling."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size: past ``sys.get_int_max_str_digits()``
    the digits are built from two halves, each printed the same way."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _rational(text: str) -> tuple:
    """``(numerator, denominator)`` of a literal that matched ``_RAT``, unreduced."""
    num, _, den = text.partition("/")
    try:
        n, d = int(num), (int(den) if den else 1)
    except ValueError:  # int() refuses digit strings past sys.get_int_max_str_digits()
        raise ScalarParseError(f"bad rational literal {text!r}") from None
    if not d:
        raise ScalarParseError(f"zero denominator in {text!r}")
    return n, d


def _ratio_text(n: int, d: int) -> str:
    """``n/d`` in lowest terms for ``d > 0``, or ``n`` alone when the
    denominator reduces to 1, in exact decimal."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # a part past sys.get_int_max_str_digits()
        return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"


def _gauss_text(a: int, d: int, b: int, e: int) -> str:
    """The literal of ``a/d + (b/e)*i`` for ``d, e > 0``, each part in lowest terms."""
    if not b:
        return _ratio_text(a, d)
    return f"{_ratio_text(a, d)}{'+' if b > 0 else '-'}{_ratio_text(abs(b), e)}i"


def _gauss_literal(text: str) -> tuple:
    """``(a, d, b, e)`` with ``a/d + (b/e)*i`` the value of a literal, unreduced."""
    m = _LITERAL_RE.match(text.strip().replace(" ", ""))
    if m is None:
        raise ScalarParseError(f"bad scalar literal {text!r}")
    first, second, imaginary = m.groups()
    if second:
        return _rational(first) + _rational(second)
    if imaginary:
        return (0, 1) + _rational(first)
    return _rational(first) + (0, 1)


class GaussianRational(FieldContract):
    """A complex scalar ``(a + b*i) / d`` held as three Python integers.

    The triple ``(a, b, d)`` is canonical: ``d > 0``, ``gcd(a, b, d) == 1``
    and zero is ``(0, 0, 1)``, so equality, hashing and text round-trips
    compare integers only.  Gaussian integers (``d == 1``), which is what
    ``reduce_content`` leaves in every coordinate triple, add, subtract and
    multiply with plain ``int`` arithmetic and no gcd; any other result is
    reduced by one three-argument gcd.  ``re`` and ``im`` give the parts as
    reduced `Fraction` instances.  Values are immutable by convention.
    Division by zero raises :class:`ScalarDivisionError`.
    """

    __slots__ = ("a", "b", "d")
    _numbers = (int, Fraction)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # both parts are reduced, so scaling to their lcm leaves gcd(a, b, d) == 1
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Inverse of ``str``: accepts ``a/b``, ``a/b+c/di`` and ``c/di``."""
        a, d, b, e = _gauss_literal(text)
        return _reduced(a * e, b * d, d * e)

    @classmethod
    def random(cls, rng: Random, height_bound: int, *, real: bool = False) -> "GaussianRational":
        """Random scalar whose numerators and denominators stay within ``height_bound``.

        Each part is ``randint(-h, h) / randint(1, h)``, real part first,
        drawn by `_randbelow` on ``getrandbits`` with the same stream."""
        h = height_bound
        if h < 1:
            raise ValueError("height_bound must be at least 1")
        bits = rng.getrandbits
        a, d = _randbelow(bits, 2 * h + 1) - h, _randbelow(bits, h) + 1
        if real:
            return _reduced(a, 0, d)
        b, e = _randbelow(bits, 2 * h + 1) - h, _randbelow(bits, h) + 1
        return _reduced(a * e, b * d, d * e)

    # ------------------------------------------------------------------
    # field operations
    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    def inv(self) -> "GaussianRational":
        a, b = self.a, self.b
        norm = a * a + b * b
        if not norm:
            raise ScalarDivisionError("0 has no multiplicative inverse")
        return _reduced(self.d * a, -self.d * b, norm)

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __str__(self):
        return _gauss_text(self.a, self.d, self.b, self.d)


_raw_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already canonical."""
    out = _raw_new(GaussianRational)
    out.a = a
    out.b = b
    out.d = d
    return out


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i) / d`` for ``d > 0``, with ``gcd(a, b, d)`` divided out."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


_PRIME = (1 << 61) - 1  # Mersenne prime, fixed once for the whole build
_RESIDUE_RE = re.compile(r"[+-]?\d+")


def _residue(text: str) -> int:
    """The residue mod p of a decimal literal, blanks around it aside."""
    t = text.strip()
    if _RESIDUE_RE.fullmatch(t):
        try:
            n = int(t) % _PRIME
        except ValueError:  # int() refuses digit strings past sys.get_int_max_str_digits()
            pass
        else:
            return n
    raise ScalarParseError(f"bad residue literal {text!r}")


class PrimeFieldElement(FieldContract):
    """An element of GF(p) for the fixed prime ``p = 2**61 - 1``.

    Conjugation is the identity and every element counts as real.  The
    backend exists for volume: all the geometry runs unchanged over it, but
    a zero produced from random inputs is probabilistic evidence, not proof.
    """

    __slots__ = ("residue",)
    _numbers = (int,)
    MODULUS = _PRIME

    def __init__(self, value: Union[int, str] = 0):
        self.residue = int(value) % _PRIME

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def parse(cls, text: str) -> "PrimeFieldElement":
        return _make_residue(_residue(text))

    @classmethod
    def random(cls, rng: Random, height_bound: int = 0, *, real: bool = False) -> "PrimeFieldElement":
        """Uniform residue, drawn as ``randrange(p)`` draws it; the height bound
        and reality flag do not apply here."""
        return _make_residue(_randbelow(rng.getrandbits, _PRIME))

    # ------------------------------------------------------------------
    # field operations
    def __add__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return _make_residue((self.residue + other.residue) % _PRIME)

    def __neg__(self):
        return _make_residue(-self.residue % _PRIME)

    def __mul__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return _make_residue(self.residue * other.residue % _PRIME)

    def inv(self) -> "PrimeFieldElement":
        if not self.residue:
            raise ScalarDivisionError("0 has no multiplicative inverse")
        return _make_residue(pow(self.residue, -1, _PRIME))

    def conjugate(self) -> "PrimeFieldElement":
        return self

    def is_zero(self) -> bool:
        return not self.residue

    def is_real(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return self.residue == other.residue

    def __hash__(self):
        return hash(("GF", self.residue))

    def __str__(self):
        return str(self.residue)


def _make_residue(residue: int) -> PrimeFieldElement:
    """Wrap a residue that is already reduced mod p."""
    out = _raw_new(PrimeFieldElement)
    out.residue = residue
    return out


# ----------------------------------------------------------------------
# kernel tables over the raw representations


class Kernels(namedtuple("Kernels", (
        "field units cross dot minor first_nonzero_minor combine combine3 matvec quad_form "
        "reduce_content content over_lead lead real is_zero add mul neg vector "
        "entries pack param unpack scalar normalize text parse random reference_image chart"))):
    """One backend's kernels over its raw representation.

    Each computes on raw operands exactly the value its formula gives on
    the unpacked scalars, and reads nothing but its arguments' entries.
    Vectors: ``cross``, ``dot``, ``minor(u, v, k)`` (slot k of the cross product),
    ``first_nonzero_minor`` (None for proportional vectors),
    ``combine(a, u, b, v)`` (a*u - b*v), ``combine3`` (a*u + b*v + c*w),
    ``matvec``, ``quad_form``, ``reduce_content``, ``content(v, r)`` (the raw
    scalar ``reduce_content`` divided v by to give r: a positive integer, 1
    on the prime field), ``over_lead`` (any length: v over its lead entry,
    times that entry's norm on gauss), ``lead`` (any length: the first
    nonzero entry's index, or None), ``real`` (every entry real) and the
    coordinate vectors ``units``.  Scalars:
    ``is_zero``, ``add``, ``mul`` and ``neg``; ``vector(x, y, z)`` is the raw
    vector of three raw scalars, and ``entries`` splits a raw vector back
    into them.  The edge: ``pack`` (scalars to a raw vector, denominators
    cleared, content kept), ``param`` (two scalars to a raw pair of the
    same ratio: ``pack`` of the pair, split in two), ``unpack``, ``scalar``,
    ``normalize``, the codec ``text`` (the literals of normalize's entries;
    on gauss a real lead divides directly, any other over its norm) and
    ``parse`` (literals to the pair of a raw vector of their ratio, scaled
    by the lcm of their parts' denominators and not content-reduced, and
    the texts ``str`` prints for the literals' values), and
    ``random(rng, height, n, real)``
    (n packed draws of the backend's ``random``).  Constructions:
    ``reference_image(t)`` (the flat raw form of T(xz = y^2) and raw
    T(1 : 0 : 0) for T's rows) and ``chart(form, base)``
    (``ConicParametrization``'s content-reduced vectors (A2, A1, A0)).

    The entries the geometry calls per point or line (``cross``, ``dot``,
    the minors, the combinations, ``matvec``, ``lead``, ``param`` and
    ``reduce_content``) unpack their operands and compute inline, with no
    generator expressions: on gauss their ints are a few hundred bits, so a
    generator frame costs about as much as the arithmetic it wraps.  So do
    the two constructions every generated cell runs, with a cross product by
    a coordinate vector as moves and negations and the reference form's
    entries (1/2 and -1 on prime, raw 1 and -2 on gauss) folded in: 54 and
    36 modular products on prime where the generic formulas (the tests'
    oracle) take 72 and 45, whose scalar-entry calls cost more than that.
    """

    __slots__ = ()


def thirds(flat: tuple) -> tuple:
    """A flat raw tuple of three equal-width vectors, split into them."""
    n = len(flat) // 3
    return (flat[:n], flat[n:2 * n], flat[2 * n:])


# slot k of cross(u, v) is the 2x2 minor u[i]*v[j] - u[j]*v[i] over these (i, j)
_MINORS = ((1, 2), (2, 0), (0, 1))


# prime: ints mod p, every result reduced once


def _p_cross(u, v):
    u0, u1, u2 = u
    v0, v1, v2 = v
    return ((u1 * v2 - u2 * v1) % _PRIME, (u2 * v0 - u0 * v2) % _PRIME, (u0 * v1 - u1 * v0) % _PRIME)


def _p_dot(u, v):
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % _PRIME


def _p_minor(u, v, k):
    i, j = _MINORS[k]
    return (u[i] * v[j] - u[j] * v[i]) % _PRIME


def _p_first_nonzero_minor(u, v):
    u0, u1, u2 = u
    v0, v1, v2 = v
    return ((u1 * v2 - u2 * v1) % _PRIME or (u2 * v0 - u0 * v2) % _PRIME
            or (u0 * v1 - u1 * v0) % _PRIME or None)


def _p_combine(a, u, b, v):
    return ((a * u[0] - b * v[0]) % _PRIME, (a * u[1] - b * v[1]) % _PRIME,
            (a * u[2] - b * v[2]) % _PRIME)


def _p_combine3(a, u, b, v, c, w):
    return ((a * u[0] + b * v[0] + c * w[0]) % _PRIME, (a * u[1] + b * v[1] + c * w[1]) % _PRIME,
            (a * u[2] + b * v[2] + c * w[2]) % _PRIME)


def _p_matvec(m, v):
    v0, v1, v2 = v
    (a, b, c), (d, e, f), (g, h, i) = m
    return ((a * v0 + b * v1 + c * v2) % _PRIME, (d * v0 + e * v1 + f * v2) % _PRIME,
            (g * v0 + h * v1 + i * v2) % _PRIME)


def _p_quad_form(m, v):
    v0, v1, v2 = v
    (a, b, c), (d, e, f), (g, h, i) = m
    return (v0 * (a * v0 + b * v1 + c * v2) + v1 * (d * v0 + e * v1 + f * v2)
            + v2 * (g * v0 + h * v1 + i * v2)) % _PRIME


def _p_lead(v):
    return next((i for i, x in enumerate(v) if x), None)


def _p_over_lead(v):
    inv = pow(v[_p_lead(v)], -1, _PRIME)
    return [x * inv % _PRIME for x in v]


def _p_parse(literals):
    raw = tuple(map(_residue, literals))
    return raw, tuple(map(str, raw))


_HALF = (_PRIME + 1) // 2  # 1/2 mod p, the reference form's corner entry


def _p_reference_image(t):
    # entry ij of the form is c_i.M0.c_j = (c_i0*c_j2 + c_i2*c_j0)/2 - c_i1*c_j1
    # for the cofactor columns c = x, y, z of T (cross products of its rows)
    (a, b, c), (d, e, f), (g, h, i) = t
    x0, x1, x2 = (e * i - f * h) % _PRIME, (f * g - d * i) % _PRIME, (d * h - e * g) % _PRIME
    y0, y1, y2 = (h * c - i * b) % _PRIME, (i * a - g * c) % _PRIME, (g * b - h * a) % _PRIME
    z0, z1, z2 = (b * f - c * e) % _PRIME, (c * d - a * f) % _PRIME, (a * e - b * d) % _PRIME
    n01 = ((x0 * y2 + x2 * y0) * _HALF - x1 * y1) % _PRIME
    n02 = ((x0 * z2 + x2 * z0) * _HALF - x1 * z1) % _PRIME
    n12 = ((y0 * z2 + y2 * z0) * _HALF - y1 * z1) % _PRIME
    return (((x0 * x2 - x1 * x1) % _PRIME, n01, n02, n01, (y0 * y2 - y1 * y1) % _PRIME, n12,
             n02, n12, (z0 * z2 - z1 * z1) % _PRIME), (a, d, g))


def _p_chart(form, b):
    # ConicParametrization's construction: the tangent l1 = M*b, l0 = b x e_k
    # for k = lead(l1), d1 = l1 x e_j and d0 = l0 x e_j for j = lead(b), where
    # u x e_0 = (0, u2, -u1), u x e_1 = (-u2, 0, u0) and u x e_2 = (u1, -u0, 0)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = form
    b0, b1, b2 = b
    l10 = (m00 * b0 + m01 * b1 + m02 * b2) % _PRIME
    l11 = (m10 * b0 + m11 * b1 + m12 * b2) % _PRIME
    l12 = (m20 * b0 + m21 * b1 + m22 * b2) % _PRIME
    if l10:
        l00, l01, l02 = 0, b2, -b1 % _PRIME
    elif l11:
        l00, l01, l02 = -b2 % _PRIME, 0, b0
    else:
        l00, l01, l02 = b1, -b0 % _PRIME, 0
    if b0:
        d10, d11, d12, d00, d01, d02 = 0, l12, -l11 % _PRIME, 0, l02, -l01 % _PRIME
    elif b1:
        d10, d11, d12, d00, d01, d02 = -l12 % _PRIME, 0, l10, -l02 % _PRIME, 0, l00
    else:
        d10, d11, d12, d00, d01, d02 = l11, -l10 % _PRIME, 0, l01, -l00 % _PRIME, 0
    v10 = (m00 * d10 + m01 * d11 + m02 * d12) % _PRIME
    v11 = (m10 * d10 + m11 * d11 + m12 * d12) % _PRIME
    v12 = (m20 * d10 + m21 * d11 + m22 * d12) % _PRIME
    v00 = (m00 * d00 + m01 * d01 + m02 * d02) % _PRIME
    v01 = (m10 * d00 + m11 * d01 + m12 * d02) % _PRIME
    v02 = (m20 * d00 + m21 * d01 + m22 * d02) % _PRIME
    q2 = (d10 * v10 + d11 * v11 + d12 * v12) % _PRIME
    q1 = 2 * (d00 * v10 + d01 * v11 + d02 * v12) % _PRIME
    q0 = (d00 * v00 + d01 * v01 + d02 * v02) % _PRIME
    m0 = 2 * (b0 * v00 + b1 * v01 + b2 * v02) % _PRIME
    return ((q2 * b0 % _PRIME, q2 * b1 % _PRIME, q2 * b2 % _PRIME),
            ((q1 * b0 - m0 * d10) % _PRIME, (q1 * b1 - m0 * d11) % _PRIME, (q1 * b2 - m0 * d12) % _PRIME),
            ((q0 * b0 - m0 * d00) % _PRIME, (q0 * b1 - m0 * d01) % _PRIME, (q0 * b2 - m0 * d02) % _PRIME))


PrimeFieldElement.kernels = Kernels(
    field=PrimeFieldElement, units=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    cross=_p_cross, dot=_p_dot, minor=_p_minor, first_nonzero_minor=_p_first_nonzero_minor,
    combine=_p_combine, combine3=_p_combine3, matvec=_p_matvec, quad_form=_p_quad_form,
    reduce_content=tuple,  # the identity on a tuple: a residue vector has no content
    content=lambda v, r: 1, over_lead=lambda v: tuple(_p_over_lead(v)),
    lead=_p_lead, real=lambda v: True, is_zero=not_,
    add=lambda x, y: (x + y) % _PRIME, mul=lambda x, y: x * y % _PRIME, neg=lambda x: -x % _PRIME,
    vector=lambda x, y, z: (x, y, z), entries=tuple,
    pack=lambda values: tuple(x.residue for x in values),
    param=lambda t0, t1: (t0.residue, t1.residue),
    unpack=lambda v: tuple(map(_make_residue, v)), scalar=_make_residue,
    normalize=lambda v: tuple(map(_make_residue, _p_over_lead(v))),
    text=lambda v: tuple(map(str, _p_over_lead(v))),
    parse=_p_parse,
    random=lambda rng, height, n, real: tuple(_randbelow(rng.getrandbits, _PRIME) for _ in range(n)),
    reference_image=_p_reference_image, chart=_p_chart,
)


# gauss: Gaussian integers as (re, im) parts, no gcd until reduce_content


def _g_cross(u, v):
    p0, q0, p1, q1, p2, q2 = u
    r0, s0, r1, s1, r2, s2 = v
    return (p1 * r2 - q1 * s2 - p2 * r1 + q2 * s1, p1 * s2 + q1 * r2 - p2 * s1 - q2 * r1,
            p2 * r0 - q2 * s0 - p0 * r2 + q0 * s2, p2 * s0 + q2 * r0 - p0 * s2 - q0 * r2,
            p0 * r1 - q0 * s1 - p1 * r0 + q1 * s0, p0 * s1 + q0 * r1 - p1 * s0 - q1 * r0)


def _g_dot(u, v):
    p0, q0, p1, q1, p2, q2 = u
    r0, s0, r1, s1, r2, s2 = v
    return (p0 * r0 - q0 * s0 + p1 * r1 - q1 * s1 + p2 * r2 - q2 * s2,
            p0 * s0 + q0 * r0 + p1 * s1 + q1 * r1 + p2 * s2 + q2 * r2)


def _g_minor(u, v, k):
    i, j = _MINORS[k]
    a, b, c, d = u[2 * i], u[2 * i + 1], v[2 * j], v[2 * j + 1]
    e, f, g, h = u[2 * j], u[2 * j + 1], v[2 * i], v[2 * i + 1]
    return (a * c - b * d - e * g + f * h, a * d + b * c - e * h - f * g)


def _g_first_nonzero_minor(u, v):
    p0, q0, p1, q1, p2, q2 = u
    r0, s0, r1, s1, r2, s2 = v
    x, y = p1 * r2 - q1 * s2 - p2 * r1 + q2 * s1, p1 * s2 + q1 * r2 - p2 * s1 - q2 * r1
    if x or y:
        return x, y
    x, y = p2 * r0 - q2 * s0 - p0 * r2 + q0 * s2, p2 * s0 + q2 * r0 - p0 * s2 - q0 * r2
    if x or y:
        return x, y
    x, y = p0 * r1 - q0 * s1 - p1 * r0 + q1 * s0, p0 * s1 + q0 * r1 - p1 * s0 - q1 * r0
    return (x, y) if x or y else None


def _g_combine(a, u, b, v):
    p, q = a
    r, s = b
    u0, u1, u2, u3, u4, u5 = u
    v0, v1, v2, v3, v4, v5 = v
    return (p * u0 - q * u1 - r * v0 + s * v1, p * u1 + q * u0 - r * v1 - s * v0,
            p * u2 - q * u3 - r * v2 + s * v3, p * u3 + q * u2 - r * v3 - s * v2,
            p * u4 - q * u5 - r * v4 + s * v5, p * u5 + q * u4 - r * v5 - s * v4)


def _g_combine3(a, u, b, v, c, w):
    p, q = a
    r, s = b
    g, h = c
    u0, u1, u2, u3, u4, u5 = u
    v0, v1, v2, v3, v4, v5 = v
    w0, w1, w2, w3, w4, w5 = w
    return (p * u0 - q * u1 + r * v0 - s * v1 + g * w0 - h * w1,
            p * u1 + q * u0 + r * v1 + s * v0 + g * w1 + h * w0,
            p * u2 - q * u3 + r * v2 - s * v3 + g * w2 - h * w3,
            p * u3 + q * u2 + r * v3 + s * v2 + g * w3 + h * w2,
            p * u4 - q * u5 + r * v4 - s * v5 + g * w4 - h * w5,
            p * u5 + q * u4 + r * v5 + s * v4 + g * w5 + h * w4)


def _g_matvec(m, v):
    return _g_dot(m[0], v) + _g_dot(m[1], v) + _g_dot(m[2], v)


def _g_reduce_content(v):
    g = gcd(*v)
    return v if g <= 1 else tuple([x // g for x in v])  # g == 0 only for the zero vector


def _g_content(v, r):
    # v = g*r for a positive integer g, read off r's first nonzero part without a gcd
    for x, y in zip(v, r):
        if y:
            return x // y, 0


def _g_over_lead(v):
    # x / lead = x * conj(lead) / norm(lead), kept as the numerators
    k = 2 * _g_lead(v)
    p, q = v[k], v[k + 1]
    return tuple(x for i in range(0, len(v), 2)
                 for x in (v[i] * p + v[i + 1] * q, v[i + 1] * p - v[i] * q))


def _g_lead(v):
    for i in range(0, len(v), 2):
        if v[i] or v[i + 1]:
            return i // 2
    return None


def _g_pack(values):
    den = lcm(*(x.d for x in values))
    return tuple(p * (den // x.d) for x in values for p in (x.a, x.b))


def _g_param(t0, t1):
    # _g_pack of the pair, split in two
    d, e = t0.d, t1.d
    den = lcm(d, e)
    f, g = den // d, den // e
    return (t0.a * f, t0.b * f), (t1.a * g, t1.b * g)


def _g_normalize(v):
    # over_lead's numerators over norm(lead), the lead's own numerator: one reduction per entry
    o = _g_over_lead(v)
    n = o[2 * _g_lead(v)]
    return tuple(_reduced(o[i], o[i + 1], n) for i in range(0, len(o), 2))


def _g_text(v):
    # normalize's entries printed straight from their numerators over n; a
    # real lead (every parsed point has one) divides directly, its sign moved
    # to the numerators, with no product by its conjugate or norm to reduce
    k = 2 * _g_lead(v)
    p, q = v[k], v[k + 1]
    head = ("0",) * (k // 2) + ("1",)
    if not q:
        s, n = (1, p) if p > 0 else (-1, -p)
        return head + tuple(_gauss_text(s * v[i], n, s * v[i + 1], n)
                            for i in range(k + 2, len(v), 2))
    n = p * p + q * q
    return head + tuple(_gauss_text(v[i] * p + v[i + 1] * q, n, v[i + 1] * p - v[i] * q, n)
                        for i in range(k + 2, len(v), 2))


def _g_parse(literals):
    parts = [_gauss_literal(t) for t in literals]
    den = lcm(*[x for _, d, _, e in parts for x in (d, e)])
    raw = tuple([x for a, d, b, e in parts for x in (a * (den // d), b * (den // e))])
    return raw, [_gauss_text(*q) for q in parts]


def _g_reference_entry(u, v):
    # u.M0.v for the reference form's raw entries 1 and -2: u0*v2 + u2*v0 - 2*u1*v1
    p0, q0, p1, q1, p2, q2 = u
    r0, s0, r1, s1, r2, s2 = v
    return (p0 * r2 - q0 * s2 + p2 * r0 - q2 * s0 - 2 * (p1 * r1 - q1 * s1),
            p0 * s2 + q0 * r2 + p2 * s0 + q2 * r0 - 2 * (p1 * s1 + q1 * r1))


def _g_reference_image(t):
    # _p_reference_image on Gaussian integers
    m0, m1, m2 = t
    x, y, z = _g_cross(m1, m2), _g_cross(m2, m0), _g_cross(m0, m1)
    n01, n02, n12 = _g_reference_entry(x, y), _g_reference_entry(x, z), _g_reference_entry(y, z)
    return (_g_reference_entry(x, x) + n01 + n02 + n01 + _g_reference_entry(y, y) + n12
            + n02 + n12 + _g_reference_entry(z, z)), m0[0:2] + m1[0:2] + m2[0:2]


def _g_chart(form, b):
    # _p_chart on Gaussian integers; the tangent, l0 and the vectors are content-reduced
    b0, c0, b1, c1, b2, c2 = b
    l10, k10, l11, k11, l12, k12 = _g_reduce_content(_g_matvec(form, b))
    if l10 or k10:
        l0 = (0, 0, b2, c2, -b1, -c1)
    elif l11 or k11:
        l0 = (-b2, -c2, 0, 0, b0, c0)
    else:
        l0 = (b1, c1, -b0, -c0, 0, 0)
    l00, k00, l01, k01, l02, k02 = _g_reduce_content(l0)
    if b0 or c0:
        d1, d0 = (0, 0, l12, k12, -l11, -k11), (0, 0, l02, k02, -l01, -k01)
    elif b1 or c1:
        d1, d0 = (-l12, -k12, 0, 0, l10, k10), (-l02, -k02, 0, 0, l00, k00)
    else:
        d1, d0 = (l11, k11, -l10, -k10, 0, 0), (l01, k01, -l00, -k00, 0, 0)
    v1, v0 = _g_matvec(form, d1), _g_matvec(form, d0)
    (r, s), (q1r, q1i), q0, (m0r, m0i) = _g_dot(d1, v1), _g_dot(d0, v1), _g_dot(d0, v0), _g_dot(b, v0)
    m0 = (2 * m0r, 2 * m0i)
    a2 = (r * b0 - s * c0, r * c0 + s * b0, r * b1 - s * c1, r * c1 + s * b1,
          r * b2 - s * c2, r * c2 + s * b2)
    return thirds(_g_reduce_content(a2 + _g_combine((2 * q1r, 2 * q1i), b, m0, d1)
                                    + _g_combine(q0, b, m0, d0)))


GaussianRational.kernels = Kernels(
    field=GaussianRational, units=((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
    cross=_g_cross, dot=_g_dot, minor=_g_minor, first_nonzero_minor=_g_first_nonzero_minor,
    combine=_g_combine, combine3=_g_combine3, matvec=_g_matvec,
    quad_form=lambda m, v: _g_dot(v, _g_matvec(m, v)),
    reduce_content=_g_reduce_content, content=_g_content, over_lead=_g_over_lead, lead=_g_lead,
    real=lambda v: not any(v[1::2]),  # the imaginary parts
    is_zero=(0, 0).__eq__, add=lambda x, y: (x[0] + y[0], x[1] + y[1]),
    mul=lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    neg=lambda x: (-x[0], -x[1]), vector=lambda x, y, z: x + y + z,
    entries=lambda v: (v[0:2], v[2:4], v[4:6]),
    pack=_g_pack, param=_g_param,
    unpack=lambda v: tuple(_make(v[i], v[i + 1], 1) for i in range(0, len(v), 2)),
    scalar=lambda x: _make(x[0], x[1], 1), normalize=_g_normalize, text=_g_text, parse=_g_parse,
    random=lambda rng, height, n, real: _g_pack(
        tuple(GaussianRational.random(rng, height, real=real) for _ in range(n))),
    reference_image=_g_reference_image, chart=_g_chart,
)


BACKENDS = {"gauss": GaussianRational, "prime": PrimeFieldElement}


def get_backend(name: str):
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown scalar backend {name!r}; expected one of {sorted(BACKENDS)}") from None


def backend_name(field) -> str:
    for name, cls in BACKENDS.items():
        if field is cls:
            return name
    raise ValueError(f"{field!r} is not a registered scalar backend")
