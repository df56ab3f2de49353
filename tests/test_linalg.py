"""Differential tests of the `_linalg` generic formulas and of the edge
between scalar tuples and raw vectors: content reduction, the table kernels
`normalize`/`proportional` on packed tuples, and triples built from tuples.

`_linalg` keeps ``cross``, ``dot`` and ``matvec``, which the benchmark times
and ``generic_formulas.py`` hands on to ``test_kernel_oracle.py`` as part of
the oracle of the backends' kernel tables.  The references below write each
formula out once more with the scalar operators only, and the formulas must
give the same canonical triple (or residue) as the reference, entry for
entry.  Gaussian inputs mix ``d == 1`` and ``d != 1`` entries, zeros and
vectors on coordinate lines, with parts from three size tiers up to 10^45.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conic_butterfly import _linalg
from conic_butterfly.projective import ProjectiveError, ProjLine, ProjPoint
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement

G = GaussianRational
P = PrimeFieldElement


# ----------------------------------------------------------------------
# reference: the scalar formulas


def ref_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def ref_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def ref_matvec(m, v):
    return tuple(ref_dot(row, v) for row in m)


def ref_normalize(v):
    inv = next(c for c in v if not c.is_zero()).inv()
    return tuple(c * inv for c in v)


def ref_reduce_content(v):
    """v scaled by den/content as Fractions; the prime field has no content."""
    if type(v[0]) is P:
        return v
    parts = [p for c in v for p in (c.re, c.im) if p]
    if not parts:
        return v
    den = lcm(*(p.denominator for p in parts))
    factor = Fraction(den, gcd(*(p.numerator * (den // p.denominator) for p in parts)))
    return tuple(G(c.re * factor, c.im * factor) for c in v)


def key(x):
    """The exact representation: the canonical triple, or the residue."""
    if isinstance(x, tuple):
        return tuple(key(e) for e in x)
    return (type(x), x.a, x.b, x.d) if type(x) is G else (type(x), x.residue)


# ----------------------------------------------------------------------
# inputs

# integer parts come from three size tiers, small first, so a failing
# property shrinks into the small tier early while examples still draw parts
# of 10^40 and more
parts = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6),
                  st.integers(10**40, 10**45), st.integers(-10**45, -10**40))
denominators = st.one_of(st.integers(2, 3), st.integers(2, 10**6), st.integers(10**40, 10**45))
rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
gauss_int = st.tuples(parts, parts).map(lambda p: G(*p))
gauss_any = (st.just(G(0)) | gauss_int
             | st.tuples(rationals, rationals).map(lambda p: G(*p))
             | st.tuples(parts, parts, denominators).map(
                 lambda p: G(Fraction(p[0], p[2]), Fraction(p[1], p[2]))))
residues = (st.sampled_from([0, 1, P.MODULUS - 1])
            | st.integers(min_value=0, max_value=P.MODULUS - 1)).map(P)


def _zero_out(drawn):
    """Zero the masked entries: (x, y, z) on a coordinate line, or at a
    coordinate point."""
    *v, mask = drawn
    return tuple(type(c).zero() if k in mask else c for k, c in enumerate(v))


def vectors(entries):
    masks = st.sampled_from([(), (), (2,), (0, 2)])
    return st.tuples(entries, entries, entries, masks).map(_zero_out)


def matrices(entries):
    return st.tuples(vectors(entries), vectors(entries), vectors(entries))


# Gaussian vectors are all-integer half the time, as points and lines hold them
gauss_vec = vectors(gauss_int) | vectors(gauss_any)
gauss_mat = matrices(gauss_int) | matrices(gauss_any)
prime_vec = vectors(residues)
prime_mat = matrices(residues)
VEC = {"gauss": gauss_vec, "prime": prime_vec}
MAT = {"gauss": gauss_mat, "prime": prime_mat}


def both(fn):
    """Run a property once per backend."""
    return pytest.mark.parametrize("backend", ["gauss", "prime"])(fn)


# ----------------------------------------------------------------------
# kernels


@both
@settings(deadline=None)
@given(data=st.data())
def test_vector_kernels(backend, data):
    a, b = data.draw(VEC[backend]), data.draw(VEC[backend])
    assert key(_linalg.cross(a, b)) == key(ref_cross(a, b))
    assert key(_linalg.dot(a, b)) == key(ref_dot(a, b))


@both
@settings(deadline=None)
@given(data=st.data())
def test_matrix_kernels(backend, data):
    m, v = data.draw(MAT[backend]), data.draw(VEC[backend])
    assert key(_linalg.matvec(m, v)) == key(ref_matvec(m, v))


@both
@settings(deadline=None)
@given(data=st.data())
def test_reduce_content_normalize_proportional(backend, data):
    """The content reduction of scalar tuples, and the table kernels
    `normalize` and `proportional` on their packed form, whose scale they
    must ignore."""
    field = G if backend == "gauss" else P
    k = field.kernels
    v = data.draw(VEC[backend])
    assert key(field.reduce_content(v)) == key(ref_reduce_content(v))
    if all(c.is_zero() for c in v):
        return
    assert key(k.normalize(k.pack(v))) == key(ref_normalize(v))
    s = data.draw(VEC[backend])[0]
    w = tuple(s * c for c in v)
    assert k.proportional(k.pack(v), k.pack(w)) is not s.is_zero()
    other = _linalg.cross(v, data.draw(VEC[backend]))
    assert k.proportional(k.pack(v), k.pack(other)) is False


# ----------------------------------------------------------------------
# _Triple built from typed tuples and from lists agree


@both
@settings(deadline=None)
@given(data=st.data())
def test_typed_triple_matches_list_input(backend, data):
    field = G if backend == "gauss" else P
    v = data.draw(VEC[backend])
    for cls in (ProjPoint, ProjLine):
        outcomes = []
        for coords, f in ((v, field), (v, None), (list(v), field), (list(v), None)):
            try:
                outcomes.append(key(cls(coords, f).coords))
            except ProjectiveError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes.count(outcomes[0]) == 4
        if all(c.is_zero() for c in v):
            assert outcomes[0] == ("raised", "(0 : 0 : 0) is not a projective object")
        else:
            assert outcomes[0] == key(field.reduce_content(v))


def test_typed_triple_keeps_the_field_check():
    with pytest.raises(TypeError):
        ProjPoint((P(1), P(2), P(3)), G)
    with pytest.raises(ProjectiveError):
        ProjPoint((G(1), G(2)), G)
    assert ProjPoint((G(2), G(4), G(0, 6))).coords == (G(1), G(2), G(0, 3))
