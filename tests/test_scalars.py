import re
import sys
from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from conic_butterfly.scalars import (
    BACKENDS,
    FieldContract,
    GaussianRational,
    PrimeFieldElement,
    ScalarDivisionError,
    ScalarParseError,
    backend_name,
    get_backend,
)
from generic_formulas import exact_text, reduce_content

G = GaussianRational
P = PrimeFieldElement

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
big_ints = st.integers(min_value=-(10**40), max_value=10**40)
# (re, im) sources: rational parts, or integer parts that take the d == 1 paths
parts = st.tuples(rationals, rationals) | st.tuples(big_ints, big_ints)
gaussians = parts.map(lambda p: G(*p))
residues = st.integers(min_value=0, max_value=P.MODULUS - 1).map(P)


class FractionPair:
    """Reference model for the differential tests: ``re + im*i`` as two Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionPair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def inv(self):
        norm = self.re * self.re + self.im * self.im
        return FractionPair(self.re / norm, -self.im / norm)

    def __truediv__(self, o):
        return self * o.inv()

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return not self.im

    def __eq__(self, o):
        return (self.re, self.im) == (o.re, o.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}i"


def reference_reduce_content(values: list) -> list:
    nonzero = [p for v in values for p in (v.re, v.im) if p]
    if not nonzero:
        return values
    den = lcm(*(p.denominator for p in nonzero))
    num = gcd(*(p.numerator * (den // p.denominator) for p in nonzero))
    factor = FractionPair(Fraction(den, num))
    return [v * factor for v in values]


def assert_agrees(x, ref: FractionPair) -> None:
    """``x`` holds a canonical triple and denotes the oracle's value."""
    assert type(x) is G
    assert all(type(n) is int for n in (x.a, x.b, x.d))
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (ref.re, ref.im)
    assert str(x) == str(ref)


class TestGaussianRational:
    def test_constructors(self):
        assert G(3).re == 3 and G(3).im == 0
        assert G(Fraction(1, 2), -2).im == Fraction(-2)
        assert G.zero().is_zero()
        assert G.one() == G(1)
        assert G.coerce("2/3") == G(Fraction(2, 3))
        with pytest.raises(TypeError):
            G.coerce(0.5)

    def test_triple_is_canonical(self):
        assert (G(0).a, G(0).b, G(0).d) == (0, 0, 1)
        x = G(Fraction(2, 4), Fraction(-1, 3))
        assert (x.a, x.b, x.d) == (3, -2, 6)
        assert (G(4, -6).a, G(4, -6).b, G(4, -6).d) == (4, -6, 1)
        y = G(Fraction(1, 2), Fraction(1, 2)) + G(Fraction(1, 2), Fraction(-1, 2))
        assert (y.a, y.b, y.d) == (1, 0, 1)

    def test_arithmetic(self):
        i = G(0, 1)
        assert i * i == G(-1)
        assert (G(1, 2) + G(3, -5)) == G(4, -3)
        assert (G(2, 1) * G(2, -1)) == G(5)
        assert G(5) / G(2, -1) == G(2, 1)
        assert -G(1, -1) == G(-1, 1)

    def test_inverse(self):
        x = G(Fraction(3, 4), Fraction(-2, 7))
        assert x * x.inv() == G.one()
        with pytest.raises(ScalarDivisionError):
            G.zero().inv()
        with pytest.raises(ScalarDivisionError):
            G(1) / G(0)

    def test_parse_forms(self):
        assert G.parse("-3/4") == G(Fraction(-3, 4))
        assert G.parse("2i") == G(0, 2)
        assert G.parse("-1/2i") == G(0, Fraction(-1, 2))
        assert G.parse("1/2+3i") == G(Fraction(1, 2), 3)
        assert G.parse("2-5/7i") == G(2, Fraction(-5, 7))
        for bad in ("", "2+", "i", "1.5", "2 + 3j", "1/0"):
            with pytest.raises(ScalarParseError):
                G.parse(bad)

    @given(gaussians)
    def test_str_round_trip(self, x):
        assert G.parse(str(x)) == x

    @given(parts, parts)
    @example((0, 0), (0, 0))
    @example((Fraction(1, 2), 0), (0, 0))
    @example((3, -4), (Fraction(1, 3), Fraction(1, 6)))
    def test_agrees_with_fraction_pair_oracle(self, p, q):
        x, y = G(*p), G(*q)
        rx, ry = FractionPair(*p), FractionPair(*q)
        assert_agrees(x, rx)
        assert_agrees(y, ry)
        for got, want in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                          (-x, -rx), (x.conjugate(), rx.conjugate())):
            assert_agrees(got, want)
        if ry.is_zero():
            with pytest.raises(ScalarDivisionError):
                y.inv()
            with pytest.raises(ScalarDivisionError):
                x / y
        else:
            assert_agrees(y.inv(), ry.inv())
            assert_agrees(x / y, rx / ry)
        assert x.is_zero() == rx.is_zero() and x.is_real() == rx.is_real()
        assert (x == y) == (rx == ry)
        assert_agrees(G.parse(str(x)), rx)
        # the same value reached by another route is equal and hashes alike
        again = (x + y) - y
        assert again == x and hash(again) == hash(x)

    @given(st.lists(parts, min_size=1, max_size=4))
    @example([(0, 0), (0, 0)])
    def test_reduce_content_agrees_with_oracle(self, sources):
        reduced = reduce_content(tuple(G(*p) for p in sources))
        expected = reference_reduce_content([FractionPair(*p) for p in sources])
        assert len(reduced) == len(expected)
        for got, want in zip(reduced, expected):
            assert_agrees(got, want)

    @given(gaussians, gaussians, gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    @given(gaussians, gaussians)
    def test_conjugation_is_automorphism(self, a, b):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a

    def test_predicates(self):
        assert G(0, 1).is_real() is False
        assert G(Fraction(2, 3)).is_real() is True
        assert not G(0, Fraction(1, 9)).is_zero()

    def test_reduce_content_makes_coprime_integers(self):
        vals = (G(Fraction(2, 3)), G(Fraction(4, 9), Fraction(-2, 3)), G.zero())
        reduced = reduce_content(vals)
        parts = [p for v in reduced for p in (v.re, v.im) if p]
        assert all(p.denominator == 1 for p in parts)
        assert gcd(*(abs(p.numerator) for p in parts)) == 1
        # the common rescale preserves all pairwise ratios
        assert reduced[0] * vals[1] == reduced[1] * vals[0]

    def test_reduce_content_all_zero(self):
        vals = (G.zero(), G.zero())
        assert reduce_content(vals) == vals

    def test_random_respects_height_and_reality(self):
        rng = Random(1)
        for _ in range(100):
            x = G.random(rng, 7)
            for part in (x.re, x.im):
                assert abs(part.numerator) <= 7 * part.denominator or abs(part.numerator) <= 7
                assert part.denominator <= 7
        assert all(G.random(rng, 5, real=True).is_real() for _ in range(20))
        with pytest.raises(ValueError):
            G.random(rng, 0)

    def test_hash_consistent_with_eq(self):
        assert hash(G(Fraction(2, 4))) == hash(G(Fraction(1, 2)))


# ----------------------------------------------------------------------
# the Fraction-free codec against the Fraction-based one it replaced

def oracle_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ScalarParseError(f"bad rational literal {text!r}") from None


# the grammar as three patterns, tried complex, imaginary, real; the package
# reads it with one
_RAT = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = re.compile(rf"^({_RAT})$")
_IMAG_RE = re.compile(rf"^({_RAT})i$")
_COMPLEX_RE = re.compile(rf"^({_RAT})([+-]\d+(?:/\d+)?)i$")


def oracle_parse(text: str) -> G:
    t = text.strip().replace(" ", "")
    m = _COMPLEX_RE.match(t)
    if m:
        return G(oracle_fraction(m.group(1)), oracle_fraction(m.group(2)))
    m = _IMAG_RE.match(t)
    if m:
        return G(0, oracle_fraction(m.group(1)))
    m = _REAL_RE.match(t)
    if m:
        return G(oracle_fraction(m.group(1)))
    raise ScalarParseError(f"bad scalar literal {text!r}")


def oracle_str(x: G) -> str:
    re_, im = Fraction(x.a, x.d), Fraction(x.b, x.d)
    if not im:
        return str(re_)
    return f"{re_}{'+' if im > 0 else '-'}{abs(im)}i"


def oracle_random(rng: Random, h: int, real: bool) -> G:
    if h < 1:
        raise ValueError("height_bound must be at least 1")

    def part() -> Fraction:
        return Fraction(rng.randint(-h, h), rng.randint(1, h))

    return G(part(), 0 if real else part())


def outcome(fn, *args):
    """(triple, None) or (None, (exception type, message)) of fn(*args)."""
    try:
        x = fn(*args)
    except Exception as exc:  # the exact type and message are compared
        return None, (type(exc), str(exc))
    return (x.a, x.b, x.d), None


# unreduced literals, signs, zeros and zero denominators, up to 45 digits
numerators = st.integers(min_value=-(10**45), max_value=10**45)
denominators = st.integers(min_value=0, max_value=10**45) | st.integers(min_value=0, max_value=12)


@st.composite
def literal_parts(draw):
    num = draw(numerators)
    text = str(num) if num < 0 else draw(st.sampled_from(["", "+"])) + str(num)
    if draw(st.booleans()):
        text += f"/{draw(denominators)}"
    return text


@st.composite
def literals(draw):
    re_text = draw(literal_parts())
    im_text = draw(literal_parts())
    if not im_text.startswith("-"):
        im_text = "+" + im_text.lstrip("+")
    shape = draw(st.sampled_from(["real", "imag", "complex", "spaced", "garbage"]))
    if shape == "real":
        return re_text
    if shape == "imag":
        return re_text + "i"
    if shape == "complex":
        return re_text + im_text + "i"
    if shape == "spaced":
        return f"  {re_text} {im_text[0]} {im_text[1:]}i "
    return draw(st.sampled_from(["", "i", "+i", "1.5", "2j", "1/-2", "3/4/5", "--1", "1+2",
                                 "1/2i+3", "x"]))


class TestCodec:
    @given(literals())
    @example("6/4-10/8i")
    @example("0/7")
    @example("-0/3+0/5i")
    @example("5/0")
    @example("1/2+3/0i")
    @example("7/0i")
    @example("+12/18i")
    def test_parse_matches_fraction_oracle(self, text):
        assert outcome(G.parse, text) == outcome(oracle_parse, text)

    def test_parse_error_messages(self):
        for text, message in (("5/0", "zero denominator in '5/0'"),
                              ("1/2+3/0i", "zero denominator in '+3/0'"),
                              ("2i+", "bad scalar literal '2i+'")):
            with pytest.raises(ScalarParseError) as info:
                G.parse(text)
            assert str(info.value) == message
        # int() refuses digit strings beyond the interpreter's limit, as Fraction did
        long_text = "1" * 5000
        assert outcome(G.parse, long_text) == outcome(oracle_parse, long_text)
        assert outcome(G.parse, long_text)[1] == (ScalarParseError,
                                                   f"bad rational literal {long_text!r}")

    def test_str_past_the_digit_limit(self):
        """Parts print in exact decimal however long, and parse still refuses
        digit strings past the interpreter's limit."""
        big = 10 ** (sys.get_int_max_str_digits() + 700) + 12345  # its low digits are zeros
        for x in (G(big), G(-big, 3), G(Fraction(-big, 3**9000), 7), G(0, -(7**9000))):
            assert str(x) == exact_text(x)
        text = str(G(big))
        assert outcome(G.parse, text)[1] == (ScalarParseError, f"bad rational literal {text!r}")

    @given(parts)
    @example((Fraction(-3, 6), Fraction(4, 6)))
    @example((0, Fraction(-1, 7)))
    @example((Fraction(5, 1), 0))
    def test_str_matches_fraction_oracle(self, p):
        x = G(*p)
        assert str(x) == oracle_str(x)
        assert outcome(G.parse, str(x)) == ((x.a, x.b, x.d), None)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=-1, max_value=10**6),
           st.booleans())
    @example(0, 1, False)
    @example(0, 0, False)
    @example(3, 50, True)
    def test_random_matches_fraction_oracle(self, seed, height, real):
        ours, theirs = Random(seed), Random(seed)
        assert (outcome(lambda: G.random(ours, height, real=real))
                == outcome(lambda: oracle_random(theirs, height, real)))
        assert ours.getstate() == theirs.getstate()


class TestPrimeField:
    def test_modular_arithmetic(self):
        p = P.MODULUS
        assert P(p) == P.zero()
        assert P(p - 1) + P(2) == P(1)
        assert P(3) - P(5) == P(p - 2)
        assert -P(1) == P(p - 1)
        assert P(1 << 40) * P(1 << 40) == P(pow(2, 80, p))

    def test_inverse(self):
        x = P(123456789)
        assert x * x.inv() == P.one()
        assert P(7) / P(7) == P.one()
        with pytest.raises(ScalarDivisionError):
            P.zero().inv()

    @given(residues.filter(lambda x: not x.is_zero()))
    @example(P(1))
    @example(P(2))
    @example(P(P.MODULUS - 1))
    def test_inverse_matches_fermat(self, x):
        p = P.MODULUS
        assert x.inv() == P(pow(x.residue, p - 2, p))
        assert x * x.inv() == P.one()

    def test_parse(self):
        assert P.parse("-1") == P(P.MODULUS - 1)
        assert P.parse(str(P.MODULUS + 5)) == P(5)
        with pytest.raises(ScalarParseError):
            P.parse("1/2")
        with pytest.raises(ScalarParseError):
            P.parse("x")

    def test_parse_past_the_digit_limit(self):
        """int() refuses digit strings past the interpreter's limit; the
        parser reports that as a bad literal, as the Gaussian one does."""
        text = "1" * (sys.get_int_max_str_digits() + 1)
        assert outcome(P.parse, text)[1] == (ScalarParseError, f"bad residue literal {text!r}")

    @given(residues)
    def test_str_round_trip(self, x):
        assert P.parse(str(x)) == x

    @given(residues, residues, residues)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    def test_conjugate_is_identity(self):
        x = P(42)
        assert x.conjugate() is x
        assert x.is_real()

    def test_reduce_content_is_identity(self):
        vals = (P(2), P(4))
        assert reduce_content(vals) == vals

    def test_random_in_range(self):
        rng = Random(2)
        assert all(0 <= P.random(rng, 5).residue < P.MODULUS for _ in range(50))

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=9))
    def test_draws_match_randrange(self, seed, n):
        """Scalar and kernel-table draws are ``randrange(p)``'s, and leave the
        rng in the same state."""
        ours, theirs = Random(seed), Random(seed)
        assert P.random(ours).residue == theirs.randrange(P.MODULUS)
        assert P.kernels.random(ours, 50, n, False) == tuple(
            theirs.randrange(P.MODULUS) for _ in range(n))
        assert ours.getstate() == theirs.getstate()

    def test_coerce(self):
        assert P.coerce(-3) == P(P.MODULUS - 3)
        with pytest.raises(TypeError):
            P.coerce(Fraction(1, 2))


class _ScriptedRng(Random):
    """``getrandbits`` replays a script, so the rejection branch that a real
    61-bit draw takes with chance 2^-61 runs; ``randint`` and ``randrange``
    run CPython's rejection loop on it."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)
        self.calls = []

    def getrandbits(self, k):
        self.calls.append(k)
        return self.script.pop(0)


@pytest.mark.parametrize("script", [
    [P.MODULUS, 5, P.MODULUS, P.MODULUS - 1, 7, 9],  # p itself is rejected
    [3, 1, 0, 1, 2, 3],
])
def test_prime_draws_follow_the_rejection_loop(script):
    ours, theirs = _ScriptedRng(script), _ScriptedRng(script)
    assert [P.random(ours).residue for _ in range(2)] == [theirs.randrange(P.MODULUS) for _ in range(2)]
    assert P.kernels.random(ours, 1, 2, False) == (theirs.randrange(P.MODULUS),
                                                    theirs.randrange(P.MODULUS))
    assert ours.calls == theirs.calls


@pytest.mark.parametrize("height,real", [(1, False), (3, True), (5, False), (50, False)])
def test_gaussian_draws_follow_the_rejection_loop(height, real):
    """The script leads with 127, out of range for every part at these
    heights, so the first draw is rejected; at height 1, where randint(1, 1)
    takes only 0, most are."""
    script = [(1 << 7) - 1, 0, 1, 2, 3, 4, 5, 6, 7, 8] * 4
    ours, theirs = _ScriptedRng(script), _ScriptedRng(script)
    assert outcome(lambda: G.random(ours, height, real=real)) == \
        outcome(lambda: oracle_random(theirs, height, real))
    assert ours.calls == theirs.calls and ours.script == theirs.script


def test_backend_registry():
    assert set(BACKENDS) == {"gauss", "prime"}
    assert get_backend("gauss") is G
    assert get_backend("prime") is P
    assert backend_name(G) == "gauss"
    assert backend_name(P) == "prime"
    with pytest.raises(ValueError):
        get_backend("float")
    with pytest.raises(ValueError):
        backend_name(int)


@pytest.mark.parametrize("cls, value, text", [(G, G(Fraction(1, 2), -3), "1/2-3i"),
                                              (P, P(-3), str(P.MODULUS - 3))],
                         ids=("gauss", "prime"))
def test_shared_base_methods(cls, value, text):
    """Both backends take zero, one, coerce, -, / and repr from their common
    base, with their own class name in messages."""
    assert isinstance(value, FieldContract) and isinstance(cls.zero(), cls)
    assert not hasattr(value, "__dict__")  # the base adds no instance dict
    assert repr(value) == f"{cls.__name__}({text})"
    assert cls.zero().is_zero() and cls.one() * value == value
    assert cls.coerce(-3) == cls.coerce("-3") == cls(-3)
    assert cls.coerce(value) is value
    assert (value / cls(2)) * cls(2) == value
    assert value.__truediv__(1) is NotImplemented
    assert value - cls(2) == value + cls(-2) and value - value == cls.zero()
    assert value.__sub__(1) is NotImplemented
    with pytest.raises(TypeError):
        value - (P if cls is G else G).one()  # backends do not mix
    with pytest.raises(ScalarDivisionError):
        value / cls.zero()
    with pytest.raises(TypeError, match=f"^cannot coerce float to {cls.__name__}$"):
        cls.coerce(0.5)
