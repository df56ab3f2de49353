"""Exact scalar backends for the projective kernel.

Two interchangeable scalar types cover every computation:

* ``GaussianRational`` -- complex numbers with rational real and imaginary
  parts, stored as one canonical integer triple ``(a, b, d)`` meaning
  ``(a + b*i) / d``.  This is the ground-truth backend: every operation is
  exact and every value has one canonical representation.  Coordinate
  triples are kept as Gaussian integers (``d == 1``), where the arithmetic
  is plain ``int`` arithmetic with no gcd.
* ``PrimeFieldElement`` -- integers modulo a fixed 61-bit prime.  Much
  faster, but a vanishing result certifies an algebraic identity only with
  Schwartz-Zippel confidence (error at most degree/p per random trial), so
  it is reserved for high-volume randomized campaigns.

Neither backend offers square roots.  The geometry layers are arranged so
that every construction stays inside the field.

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
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Protocol, Union, runtime_checkable

RationalLike = Union[int, Fraction, str]


class ScalarDivisionError(ZeroDivisionError):
    """Inversion of zero, surfaced as a distinct error type."""


class ScalarParseError(ValueError):
    """Scalar text that does not match the serialization grammar."""


@runtime_checkable
class FieldContract(Protocol):
    """Capabilities every scalar backend provides.

    Beyond the arithmetic dunders, a backend needs ``inv``, ``conjugate``,
    ``is_zero`` and ``is_real``, plus the classmethods ``zero``, ``one``,
    ``from_int``, ``coerce``, ``parse``, ``random`` and ``reduce_content``.
    Conjugation must be a field automorphism; on the prime field it is the
    identity.
    """

    def inv(self): ...
    def conjugate(self): ...
    def is_zero(self) -> bool: ...
    def is_real(self) -> bool: ...


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


class GaussianRational:
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
    def zero(cls) -> "GaussianRational":
        return cls(0)

    @classmethod
    def one(cls) -> "GaussianRational":
        return cls(1)

    @classmethod
    def from_int(cls, n: int) -> "GaussianRational":
        return cls(n)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

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

    @classmethod
    def reduce_content(cls, values: tuple) -> tuple:
        """Scale a tuple by a positive rational so all components are coprime integers.

        A coordinate triple of Gaussian integers, the common case, costs one
        gcd of its six parts and is returned as it is when that gcd is 1."""
        values = tuple(values)
        if len(values) == 3:
            x, y, z = values
            if x.d == y.d == z.d == 1:
                g = gcd(x.a, x.b, y.a, y.b, z.a, z.b)
                if g <= 1:  # 0 only for the zero triple
                    return values
                return (_make(x.a // g, x.b // g, 1), _make(y.a // g, y.b // g, 1),
                        _make(z.a // g, z.b // g, 1))
        den = lcm(*(v.d for v in values))
        parts = [p * (den // v.d) for v in values for p in (v.a, v.b)]
        content = gcd(*parts)
        if content == 0 or (den == 1 and content == 1):
            return values
        return tuple(_make(parts[k] // content, parts[k + 1] // content, 1)
                     for k in range(0, len(parts), 2))

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

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inv()

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

    def __repr__(self):
        return f"GaussianRational({self})"


_raw_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already canonical."""
    out = _raw_new(GaussianRational)
    out.a = a
    out.b = b
    out.d = d
    return out


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i) / d`` for ``d > 0``, with ``gcd(a, b, d)`` divided out.

    Every arithmetic result passes through here, so the allocation of
    ``_make`` is inlined."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = _raw_new(GaussianRational)
    out.a = a
    out.b = b
    out.d = d
    return out


_PRIME = (1 << 61) - 1  # Mersenne prime, fixed once for the whole build


class PrimeFieldElement:
    """An element of GF(p) for the fixed prime ``p = 2**61 - 1``.

    Conjugation is the identity and every element counts as real.  The
    backend exists for volume: all the geometry runs unchanged over it, but
    a zero produced from random inputs is probabilistic evidence, not proof.
    """

    __slots__ = ("residue",)
    MODULUS = _PRIME

    def __init__(self, value: Union[int, str] = 0):
        self.residue = int(value) % _PRIME

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls) -> "PrimeFieldElement":
        return _make_residue(0)

    @classmethod
    def one(cls) -> "PrimeFieldElement":
        return _make_residue(1)

    @classmethod
    def from_int(cls, n: int) -> "PrimeFieldElement":
        return _make_residue(n % _PRIME)

    @classmethod
    def coerce(cls, value) -> "PrimeFieldElement":
        if isinstance(value, PrimeFieldElement):
            return value
        if isinstance(value, int):
            return _make_residue(value % _PRIME)
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to PrimeFieldElement")

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

    @classmethod
    def reduce_content(cls, values: tuple) -> tuple:
        return tuple(values)

    # ------------------------------------------------------------------
    # field operations; allocation is inlined because these four run in
    # the million-call range per fuzz campaign
    def __add__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        out = _raw_new(PrimeFieldElement)
        out.residue = (self.residue + other.residue) % _PRIME
        return out

    def __sub__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        out = _raw_new(PrimeFieldElement)
        out.residue = (self.residue - other.residue) % _PRIME
        return out

    def __neg__(self):
        out = _raw_new(PrimeFieldElement)
        out.residue = -self.residue % _PRIME
        return out

    def __mul__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        out = _raw_new(PrimeFieldElement)
        out.residue = self.residue * other.residue % _PRIME
        return out

    def inv(self) -> "PrimeFieldElement":
        if not self.residue:
            raise ScalarDivisionError("0 has no multiplicative inverse")
        return _make_residue(pow(self.residue, -1, _PRIME))

    def __truediv__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return self * other.inv()

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

    def __repr__(self):
        return f"PrimeFieldElement({self.residue})"


def _make_residue(residue: int) -> PrimeFieldElement:
    """Wrap a residue that is already reduced mod p."""
    out = _raw_new(PrimeFieldElement)
    out.residue = residue
    return out


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
