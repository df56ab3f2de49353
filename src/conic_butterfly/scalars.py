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
each part as ``randint(-h, h) / randint(1, h)`` and reduces once.  None of
them builds a ``Fraction``; ``re``, ``im`` and the constructor still accept
and return them.  Prime residues are plain decimal integers.
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

    A backend adds the arithmetic dunders, ``inv``, ``conjugate``,
    ``is_zero``, ``is_real``, ``__eq__``, ``__hash__`` and ``__str__``, the
    classmethods ``parse`` and ``random``, the number types ``coerce`` wraps
    with the constructor (``_numbers``), and its ``Kernels`` table as the
    class attribute ``kernels``.  Conjugation must be a field automorphism;
    on the prime field it is the identity.
    """

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def one(cls):
        return cls(1)

    @classmethod
    def from_int(cls, n: int):
        return cls(n)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, cls._numbers):
            return cls(value)
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to {cls.__name__}")

    @classmethod
    def reduce_content(cls, values: tuple) -> tuple:
        """Scale a tuple by a positive rational so all components are coprime
        integers; the identity on the prime field, which has no content."""
        k = cls.kernels
        return k.unpack(k.reduce_content(k.pack(tuple(values))))

    def __truediv__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self * other.inv()

    def __repr__(self):
        return f"{type(self).__name__}({self})"


_RAT = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = re.compile(rf"^({_RAT})$")
_IMAG_RE = re.compile(rf"^({_RAT})i$")
_COMPLEX_RE = re.compile(rf"^({_RAT})([+-]\d+(?:/\d+)?)i$")


def _rational(text: str) -> tuple:
    """``(numerator, denominator)`` of a literal that matched ``_RAT``, unreduced."""
    num, _, den = text.partition("/")
    try:
        num, den = int(num), (int(den) if den else 1)
    except ValueError:  # int() refuses digit strings past sys.get_int_max_str_digits()
        raise ScalarParseError(f"bad rational literal {text!r}") from None
    if not den:
        raise ScalarParseError(f"zero denominator in {text!r}")
    return num, den


def _ratio_text(n: int, d: int) -> str:
    """``n/d`` in lowest terms, or ``n`` alone when the denominator reduces to 1."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


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
        t = text.strip().replace(" ", "")
        m = _COMPLEX_RE.match(t)
        if m:
            (a, d), (b, e) = _rational(m.group(1)), _rational(m.group(2))
            return _reduced(a * e, b * d, d * e)
        m = _IMAG_RE.match(t)
        if m:
            b, e = _rational(m.group(1))
            return _reduced(0, b, e)
        m = _REAL_RE.match(t)
        if m:
            a, d = _rational(m.group(1))
            return _reduced(a, 0, d)
        raise ScalarParseError(f"bad scalar literal {text!r}")

    @classmethod
    def random(cls, rng: Random, height_bound: int, *, real: bool = False) -> "GaussianRational":
        """Random scalar whose numerators and denominators stay within ``height_bound``.

        Each part is ``randint(-h, h) / randint(1, h)``, real part first."""
        if height_bound < 1:
            raise ValueError("height_bound must be at least 1")
        a, d = rng.randint(-height_bound, height_bound), rng.randint(1, height_bound)
        if real:
            return _reduced(a, 0, d)
        b, e = rng.randint(-height_bound, height_bound), rng.randint(1, height_bound)
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

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

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
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_text(a, d)
        sign = "+" if b > 0 else "-"
        return f"{_ratio_text(a, d)}{sign}{_ratio_text(abs(b), d)}i"


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
        t = text.strip()
        if not re.fullmatch(r"[+-]?\d+", t):
            raise ScalarParseError(f"bad residue literal {text!r}")
        return _make_residue(int(t) % _PRIME)

    @classmethod
    def random(cls, rng: Random, height_bound: int = 0, *, real: bool = False) -> "PrimeFieldElement":
        """Uniform residue; the height bound and reality flag do not apply here."""
        return _make_residue(rng.randrange(_PRIME))

    # ------------------------------------------------------------------
    # field operations
    def __add__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return _make_residue((self.residue + other.residue) % _PRIME)

    def __sub__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return _make_residue((self.residue - other.residue) % _PRIME)

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
        "reduce_content proportional lead real is_zero add mul neg pack param unpack "
        "scalar normalize random"))):
    """One backend's kernels over its raw representation.

    Each computes on raw operands exactly the value its formula gives on
    the unpacked scalars, and reads nothing but its arguments' entries.
    Vectors: ``cross``, ``dot``, ``minor(u, v, k)`` (slot k of the cross product),
    ``first_nonzero_minor`` (None for proportional vectors),
    ``combine(a, u, b, v)`` (a*u - b*v), ``combine3`` (a*u + b*v + c*w),
    ``matvec``, ``quad_form``, ``reduce_content``, ``proportional`` (any
    length), ``lead`` (the first nonzero entry's index, or None), ``real``
    (every entry real) and the coordinate vectors ``units``.  Scalars: ``is_zero``, ``add``, ``mul``
    and ``neg``.  The edge: ``pack`` (scalars to a raw
    vector, denominators cleared, content kept), ``param`` (two scalars to a
    raw pair of the same ratio), ``unpack``, ``scalar``, ``normalize`` and
    ``random(rng, height, n, real)`` (n packed draws of the backend's ``random``).
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


def _p_proportional(u, v):
    k = _p_lead(u)
    a, b = u[k], v[k]
    return bool(b) and all((a * y - b * x) % _PRIME == 0 for x, y in zip(u, v))


def _p_lead(v):
    return next((i for i, x in enumerate(v) if x), None)


def _p_normalize(v):
    inv = pow(v[_p_lead(v)], -1, _PRIME)
    return tuple(_make_residue(x * inv % _PRIME) for x in v)


PrimeFieldElement.kernels = Kernels(
    field=PrimeFieldElement, units=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    cross=_p_cross, dot=_p_dot, minor=_p_minor, first_nonzero_minor=_p_first_nonzero_minor,
    combine=_p_combine, combine3=_p_combine3, matvec=_p_matvec, quad_form=_p_quad_form,
    reduce_content=tuple,  # the identity on a tuple: a residue vector has no content
    proportional=_p_proportional, lead=_p_lead, real=lambda v: True, is_zero=not_,
    add=lambda x, y: (x + y) % _PRIME, mul=lambda x, y: x * y % _PRIME, neg=lambda x: -x % _PRIME,
    pack=lambda values: tuple(x.residue for x in values),
    param=lambda t0, t1: (t0.residue, t1.residue),
    unpack=lambda v: tuple(map(_make_residue, v)), scalar=_make_residue, normalize=_p_normalize,
    random=lambda rng, height, n, real: tuple(rng.randrange(_PRIME) for _ in range(n)),
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
    return next((m for m in (_g_minor(u, v, k) for k in range(3)) if m[0] or m[1]), None)


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
    return v if g <= 1 else tuple(x // g for x in v)  # g == 0 only for the zero vector


def _g_proportional(u, v):
    k = 2 * _g_lead(u)
    a, b, c, d = u[k], u[k + 1], v[k], v[k + 1]
    # (a + bi) * v[i] == (c + di) * u[i] for every entry i
    return bool(c or d) and all(
        a * v[i] - b * v[i + 1] == c * u[i] - d * u[i + 1]
        and a * v[i + 1] + b * v[i] == c * u[i + 1] + d * u[i] for i in range(0, len(u), 2))


def _g_lead(v):
    return next((i // 2 for i in range(0, len(v), 2) if v[i] or v[i + 1]), None)


def _g_pack(values):
    den = lcm(*(x.d for x in values))
    return tuple(p * (den // x.d) for x in values for p in (x.a, x.b))


def _g_param(t0, t1):
    a, b, c, d = _g_pack((t0, t1))
    return (a, b), (c, d)


def _g_normalize(v):
    # x / lead = x * conj(lead) / norm(lead): one reduction per entry
    k = 2 * _g_lead(v)
    p, q = v[k], v[k + 1]
    n = p * p + q * q
    return tuple(_reduced(v[i] * p + v[i + 1] * q, v[i + 1] * p - v[i] * q, n)
                 for i in range(0, len(v), 2))


GaussianRational.kernels = Kernels(
    field=GaussianRational, units=((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
    cross=_g_cross, dot=_g_dot, minor=_g_minor, first_nonzero_minor=_g_first_nonzero_minor,
    combine=_g_combine, combine3=_g_combine3, matvec=_g_matvec,
    quad_form=lambda m, v: _g_dot(v, _g_matvec(m, v)),
    reduce_content=_g_reduce_content, proportional=_g_proportional, lead=_g_lead,
    real=lambda v: not any(v[1::2]),  # the imaginary parts
    is_zero=(0, 0).__eq__, add=lambda x, y: (x[0] + y[0], x[1] + y[1]),
    mul=lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    neg=lambda x: (-x[0], -x[1]),
    pack=_g_pack, param=_g_param,
    unpack=lambda v: tuple(_make(v[i], v[i + 1], 1) for i in range(0, len(v), 2)),
    scalar=lambda x: _make(x[0], x[1], 1), normalize=_g_normalize,
    random=lambda rng, height, n, real: _g_pack(
        tuple(GaussianRational.random(rng, height, real=real) for _ in range(n))),
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
