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

``reduce_content`` calls a table: the backend's content reduction of a
tuple of scalars, read back as scalars, which the scalar and triple tests
compare with their own references.

``affine_spec_from_conic`` reads a real conic's six affine coefficients off
its canonical form.  Together with ``homogenize_affine_conic`` it is the
scalar round trip that the real-plane (cutl) scenarios once took, and the
oracle of the raw form they now take.

``reference_image`` and ``chart`` are the generic bodies of the kernel
tables' two constructions, written over a table's primitive entries
(``cross``, ``dot``, ``matvec``, ``mul``, ``units``, ...) where the tables
compute inline.  They are the oracle of both tables' entries, and a
test-only backend can fill its own table's two entries with them, as
``reference_image=lambda t: reference_image(table, t)``.

``affine_squared_distance``, ``upper_entries``, ``apply_line``,
``has_witness``, ``to_affine``, ``reference_base`` and ``harmonic`` are
small readings of the package's objects that only the tests need.
"""

from conic_butterfly._linalg import cross, dot, matvec
from conic_butterfly.projective import (CrossRatioValue, DegenerateInputError, ProjectiveError,
                                        ProjLine, ProjPoint, _cofactors, _require_same_field,
                                        incident, join)
from conic_butterfly.scalars import thirds
from conic_butterfly.scenarios import reference_conic


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


def reference_image(k, t) -> tuple:
    """The flat raw form and the raw base of T(xz = y^2), for T's raw rows t.

    The reference form's only nonzero raw entries are e = M02 = M20 and
    f = M11, so with c_j the columns of adj(T) the image's entry ij is
    c_i.M c_j = e*(c_i0*c_j2 + c_i2*c_j0) + f*c_i1*c_j1: six dots with
    M c_j = (e*c_j2, f*c_j1, e*c_j0).  The base (1 : 0 : 0) maps to T's
    first column."""
    m0, m1, _ = reference_conic(k.field).raw
    e, f = k.entries(m0)[2], k.entries(m1)[1]
    r0, r1, r2 = t
    c0, c1, c2 = cols = k.cross(r1, r2), k.cross(r2, r0), k.cross(r0, r1)
    y0, y1, y2 = (k.vector(k.mul(e, x2), k.mul(f, x1), k.mul(e, x0))
                  for x0, x1, x2 in map(k.entries, cols))
    n01, n02, n12 = k.dot(c0, y1), k.dot(c0, y2), k.dot(c1, y2)
    form = (k.vector(k.dot(c0, y0), n01, n02) + k.vector(n01, k.dot(c1, y1), n12)
            + k.vector(n02, n12, k.dot(c2, y2)))
    return form, k.vector(*(k.entries(r)[0] for r in t))


def chart(k, form, b) -> tuple:
    """The content-reduced coefficient vectors (A2, A1, A0) of the chart at
    the raw point b of the conic with raw rows `form`.

    l1 is the tangent at the base and l0 its join with a coordinate point
    off l1, which is not the base because the base lies on l1; d(t) =
    t*d1 + d0 is the meet of the chord line t*l1 + l0 with the coordinate
    line e_j where base[j] != 0, so d(t) is never the base."""
    l1 = k.reduce_content(k.matvec(form, b))
    l0 = k.reduce_content(k.cross(b, k.units[k.lead(l1)]))
    ej = k.units[k.lead(b)]
    d1 = k.cross(l1, ej)
    d0 = k.cross(l0, ej)
    v1 = k.matvec(form, d1)
    v0 = k.matvec(form, d0)
    q2 = k.dot(d1, v1)
    q1 = k.dot(d0, v1)
    q0 = k.dot(d0, v0)
    # m(t) = b.M.d(t) has no t term: b.M.d1 = l1.d1 = 0, as d1 lies on the tangent
    m0 = k.dot(b, v0)
    m0 = k.add(m0, m0)
    a2 = k.vector(*(k.mul(q2, x) for x in k.entries(b)))
    a1 = k.combine(k.add(q1, q1), b, m0, d1)
    a0 = k.combine(q0, b, m0, d0)
    # one shared content factor: the three vectors must keep their relative scale
    return thirds(k.reduce_content(a2 + a1 + a0))


def affine_squared_distance(p: ProjPoint, q: ProjPoint):
    """Exact squared Euclidean distance in the chart z = 1."""
    pa, qa = to_affine(p), to_affine(q)
    if pa is None or qa is None:
        raise ProjectiveError("ideal points have no affine distance")
    dx = pa[0] - qa[0]
    dy = pa[1] - qa[1]
    return dx * dx + dy * dy


def upper_entries(conic) -> tuple:
    """The six entries (m11, m12, m13, m22, m23, m33) of a conic's form."""
    m = conic.form
    return (m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2])


def apply_line(t, l: ProjLine) -> ProjLine:
    """The image of a line under a projectivity: adj(M)^T l, whose rows are
    the cofactor columns."""
    _require_same_field(t, l)
    return ProjLine(t.kernels.matvec(_cofactors(t), l.raw), t.kernels)


def has_witness(report, name: str) -> bool:
    return any(key == name for key, _ in report.witnesses)


def to_affine(p: ProjPoint):
    """Chart coordinates (x/z, y/z), or None for an ideal point."""
    x, y, z = p.coords
    if z.is_zero():
        return None
    inv = z.inv()
    return (x * inv, y * inv)


def reference_base(field) -> ProjPoint:
    """(1 : 0 : 0), the point of the reference conic xz = y^2 at parameter (1 : 0)."""
    return ProjPoint((field.one(), field.zero(), field.zero()), field)


def harmonic(field) -> CrossRatioValue:
    """The cross-ratio value -1."""
    return CrossRatioValue(-field.one(), field.one(), field)
