"""Differential tests of the `_linalg` generic formulas.

The formulas (the vector products, single minors, ``first_nonzero_minor``
and the combinations ``combine``/``combine3``) are the oracle the backends'
kernel tables are tested against in ``test_kernel_oracle.py``.  The
references below write each formula out once more with the scalar operators
only, and the formulas must give the same canonical triple (or residue) as
the reference, entry for entry.  Gaussian inputs mix ``d == 1`` and
``d != 1`` entries, zeros and vectors on coordinate lines, with parts up to
10^40.
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


def ref_quad_form(m, v):
    return ref_dot(v, ref_matvec(m, v))


def ref_matmul(a, b):
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
                       for j in range(3)) for i in range(3))


def ref_adjugate(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def ref_minor(a, b, k):
    i, j = ((1, 2), (2, 0), (0, 1))[k]
    return a[i] * b[j] - a[j] * b[i]


def ref_first_nonzero_minor(a, b):
    return next((m for m in ref_cross(a, b) if not m.is_zero()), None)


def ref_combine(a, u, b, v):
    return tuple(a * x - b * y for x, y in zip(u, v))


def ref_combine3(a, u, b, v, c, w):
    return tuple(a * x + b * y + c * z for x, y, z in zip(u, v, w))


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
    if x is None:
        return None
    if isinstance(x, tuple):
        return tuple(key(e) for e in x)
    return (type(x), x.a, x.b, x.d) if type(x) is G else (type(x), x.residue)


# ----------------------------------------------------------------------
# inputs

big = st.integers(min_value=-(10**40), max_value=10**40)
small = st.integers(min_value=-3, max_value=3)
rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
gauss_int = st.tuples(big | small, big | small).map(lambda p: G(*p))
gauss_any = (st.just(G(0)) | gauss_int
             | st.tuples(rationals, rationals).map(lambda p: G(*p))
             | st.tuples(big, big, st.integers(2, 10**40)).map(
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
SCALAR = {"gauss": gauss_int | gauss_any, "prime": residues}
MAT = {"gauss": gauss_mat, "prime": prime_mat}


def gaussian_integers(data, n, *, one_off=False):
    """n Gaussian integers; with one_off, one of them is pushed off the
    integers by 1/2."""
    entries = [data.draw(gauss_int) for _ in range(n)]
    if one_off:
        entries[data.draw(st.integers(0, n - 1))] += G(Fraction(1, 2))
    return entries


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
    for k in range(3):
        assert key(_linalg.minor(a, b, k)) == key(ref_minor(a, b, k))
    assert key(_linalg.first_nonzero_minor(a, b)) == key(ref_first_nonzero_minor(a, b))
    assert key(_linalg.first_nonzero_minor(a, a)) is None


@both
@settings(deadline=None)
@given(data=st.data())
def test_combine_kernels(backend, data):
    u, v, w = (data.draw(VEC[backend]) for _ in range(3))
    a, b, c = (data.draw(SCALAR[backend]) for _ in range(3))
    assert key(_linalg.combine(a, u, b, v)) == key(ref_combine(a, u, b, v))
    assert key(_linalg.combine3(a, u, b, v, c, w)) == key(ref_combine3(a, u, b, v, c, w))
    zero = type(a).zero()
    assert key(_linalg.combine(a, u, zero, v)) == key(tuple(a * x for x in u))
    assert key(_linalg.combine3(zero, u, zero, v, zero, w)) == key((zero, zero, zero))
    if backend == "gauss":
        # every entry a Gaussian integer, then one entry with denominator 2
        for one_off in (False, True):
            a, b, c, *e = gaussian_integers(data, 12, one_off=one_off)
            u, v, w = tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9])
            assert key(_linalg.combine3(a, u, b, v, c, w)) == key(ref_combine3(a, u, b, v, c, w))
            a, b, *e = gaussian_integers(data, 8, one_off=one_off)
            u, v = tuple(e[0:3]), tuple(e[3:6])
            assert key(_linalg.combine(a, u, b, v)) == key(ref_combine(a, u, b, v))


@both
@settings(deadline=None)
@given(data=st.data())
def test_first_nonzero_minor_slots(backend, data):
    """Pin which slot wins, and that the minor comes back as a scalar."""
    a = data.draw(VEC[backend])
    lam = data.draw(SCALAR[backend])
    for b in (data.draw(VEC[backend]), tuple(lam * x for x in a),
              (a[0], a[1], a[2] + data.draw(SCALAR[backend]))):
        got = _linalg.first_nonzero_minor(a, b)
        assert key(got) == key(ref_first_nonzero_minor(a, b))
        assert got is None or type(got) is type(a[0])


@both
@settings(deadline=None)
@given(data=st.data())
def test_matrix_kernels(backend, data):
    m, n, v = data.draw(MAT[backend]), data.draw(MAT[backend]), data.draw(VEC[backend])
    assert key(_linalg.matvec(m, v)) == key(ref_matvec(m, v))
    assert key(_linalg.quad_form(m, v)) == key(ref_quad_form(m, v))
    assert key(_linalg.matmul(m, n)) == key(ref_matmul(m, n))
    assert key(_linalg.adjugate(m)) == key(ref_adjugate(m))


@both
@settings(deadline=None)
@given(data=st.data())
def test_reduce_content_normalize_proportional(backend, data):
    field = G if backend == "gauss" else P
    v = data.draw(VEC[backend])
    assert key(field.reduce_content(v)) == key(ref_reduce_content(v))
    if all(c.is_zero() for c in v):
        return
    assert key(_linalg.normalize(v)) == key(ref_normalize(v))
    s = data.draw(VEC[backend])[0]
    w = tuple(s * c for c in v)
    assert _linalg.proportional(v, w) is not s.is_zero()
    assert _linalg.proportional(v, _linalg.cross(v, data.draw(VEC[backend]))) is False


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
