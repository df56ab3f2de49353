"""Generic formulas on tuples of scalar objects, the oracle of the kernel tests.

Vectors are length-3 tuples of scalars and matrices 3-tuples of rows; every
formula uses the scalar operators only, so it runs on either backend.  The
package computes on raw representations through each backend's kernel table
(``scalars.Kernels``), and ``test_kernel_oracle.py`` checks every table
kernel against the formula of the same name here.  ``cross``, ``dot`` and
``matvec`` are the package's own ``_linalg`` formulas, which
``test_linalg.py`` checks against a second writing.

``line_chart`` and the chart lines are older constructions of the package
that the tests keep as references: the cross-ratio and harmonic-conjugate
kernels read single minors where ``line_chart`` reads full cross products,
and ``chart_lines`` builds a chart's tangent and second line with the
public ``tangent_at`` and ``join``.

``exact_text`` prints a rational with no int-to-str conversion past the
interpreter's digit limit, the oracle of the package's exact decimal output.

``reduce_content`` is the one entry that calls a table: the backend's
content reduction of a tuple of scalars, read back as scalars, which the
scalar and triple tests compare with their own references.

``affine_spec_from_conic`` reads a real conic's six affine coefficients off
its canonical form.  Together with ``homogenize_affine_conic`` it is the
scalar round trip that the real-plane (cutl) scenarios once took, and the
oracle of the raw form they now take.
"""

from conic_butterfly._linalg import cross, dot, matvec
from conic_butterfly.projective import (DegenerateInputError, ProjectiveError, ProjLine, ProjPoint,
                                        incident, join)


def exact_decimal(n: int) -> str:
    """The decimal digits of n, nine at a time."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while True:
        n, low = divmod(n, 10**9)
        chunks.append(low)
        if not n:
            break
    return sign + str(chunks[-1]) + "".join(f"{c:09d}" for c in reversed(chunks[:-1]))


def exact_text(x) -> str:
    """The literal of a Fraction, or of a Gaussian scalar from its Fraction parts."""
    if hasattr(x, "numerator"):
        num = exact_decimal(x.numerator)
        return num if x.denominator == 1 else f"{num}/{exact_decimal(x.denominator)}"
    if not x.im:
        return exact_text(x.re)
    return f"{exact_text(x.re)}{'+' if x.im > 0 else '-'}{exact_text(abs(x.im))}i"


def quad_form(m, v):
    return dot(v, matvec(m, v))


def matmul(a, b):
    columns = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in columns) for row in a)


# slot k of cross(a, b) is the 2x2 minor a[i]*b[j] - a[j]*b[i] over these (i, j)
_MINORS = ((1, 2), (2, 0), (0, 1))


def minor(a, b, k: int):
    """Slot k of cross(a, b), without the other two slots."""
    i, j = _MINORS[k]
    return a[i] * b[j] - a[j] * b[i]


def first_nonzero_minor(a, b):
    """The first nonzero slot of cross(a, b), one minor at a time; None when
    a and b are proportional."""
    for k in range(3):
        m = minor(a, b, k)
        if not m.is_zero():
            return m
    return None


def combine(a, u, b, v):
    """Entrywise a*u - b*v."""
    return tuple(a * x - b * y for x, y in zip(u, v))


def combine3(a, u, b, v, c, w):
    """Entrywise a*u + b*v + c*w."""
    return tuple(a * x + b * y + c * z for x, y, z in zip(u, v, w))


def normalize(v) -> tuple:
    """v scaled so its first nonzero entry is one; v must not be zero."""
    inv = next(c for c in v if not c.is_zero()).inv()
    return tuple(c * inv for c in v)


def reduce_content(values) -> tuple:
    """The scalars of `values` through their table's content reduction:
    coprime Gaussian integers of the same ratio, or the residues as given."""
    k = values[0].kernels
    return k.unpack(k.reduce_content(k.pack(tuple(values))))


def proportional(a, b) -> bool:
    """Whether b is a nonzero multiple of a; a must not be zero."""
    k = next(i for i, c in enumerate(a) if not c.is_zero())
    if b[k].is_zero():
        return False
    return all((a[k] * b[i] - b[k] * a[i]).is_zero() for i in range(len(a)))


def line_chart(l: ProjLine, basis, p: ProjPoint) -> tuple:
    """Coordinates (alpha, beta) with p = alpha*b1 + beta*b2, up to scale.

    alpha and beta come from cross(p, b2) = alpha*cross(b1, b2) and
    cross(b1, p) = beta*cross(b1, b2), read off at any nonzero slot of
    cross(b1, b2).
    """
    b1, b2 = basis
    if b1 == b2:
        raise DegenerateInputError("chart basis points coincide")
    for q in (b1, b2, p):
        if not incident(q, l):
            raise ProjectiveError(f"{q} is not on the chart line {l}")
    n = cross(b1.coords, b2.coords)
    k = next(i for i, c in enumerate(n) if not c.is_zero())
    alpha = cross(p.coords, b2.coords)[k]
    beta = cross(b1.coords, p.coords)[k]
    return (alpha, beta)


def chart_lines(par) -> tuple:
    """A chart's two lines through its base: the tangent l1 there, and l0, the
    join of the base with the coordinate point e_j at the first nonzero slot
    j of l1."""
    k = par.conic.kernels
    l1 = par.conic.tangent_at(par.base)
    return l1, join(par.base, ProjPoint(k.units[k.lead(l1.raw)], k))


def chart_line(par, t) -> ProjLine:
    """The chord line t0*l1 + t1*l0 through the base whose second conic point
    is par.point(t); t is a scalar or a homogeneous pair."""
    field = par.conic.field
    t0, t1 = map(field.coerce, t if isinstance(t, tuple) else (t, field.one()))
    l1, l0 = chart_lines(par)
    return ProjLine(tuple(t0 * a + t1 * b for a, b in zip(l1.coords, l0.coords)), field)


def affine_spec_from_conic(conic) -> tuple:
    """The affine coefficients (A, B, Q, D, E, F) of a real symmetric form,
    read off its canonical form."""
    m11, m12, m13, m22, m23, m33 = vals = conic.canonical()
    if not all(v.is_real() for v in vals):
        raise ProjectiveError("conic is not real; no affine coefficients exist")
    two = conic.field.one() + conic.field.one()
    return (m11, m22, two * m12, two * m13, two * m23, m33)
