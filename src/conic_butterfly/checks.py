"""Exact checkers for the reflection lemmas and the two butterfly statements.

Every checker returns a three-valued CheckReport.  Genuine precondition
violations (points not on the conic, lines missing the pole) raise;
exceptional-but-legal positions are classified DEGENERATE; and a VIOLATED
verdict always carries an exact nonzero residual, either a cross-ratio
offset cr + 1 or a collinearity determinant.

Claim identifiers: mono (the axis-meet harmonic criterion), jap
(perspectivity transport of reflected pairs), nut (reflected joins meet on
the axis), sack (the hexagon collinearity feeding the main proof), pascal
(the classical hexagon theorem), damn (the projective butterfly), cutl
(the real-plane butterfly).
"""

from __future__ import annotations

from .conics import Conic
from .projective import (
    DegenerateInputError,
    ProjectiveError,
    collinearity_residual,
    cross_ratio,
    incident,
    join,
    meet,
)
from .reflection import ReflectionFrame
from .reports import CheckReport, Verdict, degenerate
from .scenarios import ButterflyScenario


def _separation_residual(p, q):
    """The first nonzero cross-product entry, witnessing that two objects differ.
    Callers call it only once ``==`` has found that they do."""
    return p.kernels.scalar(p.kernels.first_nonzero_minor(p.raw, q.raw))


# ----------------------------------------------------------------------


def lemma_mono_check(frame: ReflectionFrame, l, y, y_prime, m) -> CheckReport:
    """Both directions of: cr(p, y, m, y') = -1 iff m is the axis meet of l."""
    if not incident(frame.pole, l):
        raise ProjectiveError("l must pass through the pole")
    for w in (y, y_prime):
        if not frame.conic.contains(w):
            raise ProjectiveError(f"{w} is not on the conic")
        if not incident(w, l):
            raise ProjectiveError(f"{w} is not on l")
    if y == y_prime:
        raise ProjectiveError("l is tangent; it has no second conic point")
    if not incident(m, l):
        raise ProjectiveError("the candidate m must lie on l")

    witnesses = [("p", frame.pole), ("y", y), ("y'", y_prime), ("m", m)]
    if m == y or m == y_prime:
        return degenerate("mono", "candidate m coincides with a conic point of l", witnesses)

    n = meet(l, frame.axis)
    ratio = cross_ratio(frame.pole, y, m, y_prime)
    witnesses += [("n", n), ("cr", ratio)]
    harmonic = ratio.is_harmonic()
    at_axis = m == n
    if harmonic == at_axis:
        return CheckReport("mono", Verdict.HOLDS, witnesses)
    residual = ratio.plus_one() if at_axis else _separation_residual(m, n)
    return CheckReport("mono", Verdict.VIOLATED, witnesses, residual=residual)


def lemma_jap_check(frame: ReflectionFrame, y, u, l2) -> CheckReport:
    """Meets of a pole line with yu and y'u are again a reflected pair."""
    if y == frame.pole:
        raise ProjectiveError("y must differ from the pole")
    if not incident(u, frame.axis):
        raise ProjectiveError("u must lie on the axis")
    if not incident(frame.pole, l2):
        raise ProjectiveError("l2 must pass through the pole")
    if l2 == join(frame.pole, y):
        raise ProjectiveError("l2 must differ from the pole line through y")
    y_prime = frame.reflect_point(y)

    witnesses = [("p", frame.pole), ("y", y), ("y'", y_prime), ("u", u)]
    if u == y or u == y_prime:
        return degenerate("jap", "u coincides with the reflected pair", witnesses)
    # l2 is no connector: one through the pole would be py, which holds y and y'
    t = meet(l2, join(y, u))
    t_prime = meet(l2, join(y_prime, u))
    witnesses += [("t", t), ("t'", t_prime)]
    if t == frame.pole or t_prime == frame.pole:
        return degenerate("jap", "connector passes through the pole", witnesses)
    reflected = frame.reflect_point(t)
    witnesses.append(("reflect(t)", reflected))
    if reflected == t_prime:
        return CheckReport("jap", Verdict.HOLDS, witnesses)
    return CheckReport("jap", Verdict.VIOLATED, witnesses,
                       residual=_separation_residual(reflected, t_prime))


def lemma_nut_check(frame: ReflectionFrame, y, z) -> CheckReport:
    """join(y, z) and join(y', z') always meet on the axis."""
    if y == frame.pole or z == frame.pole:
        raise ProjectiveError("y and z must differ from the pole")
    if y == z:
        raise ProjectiveError("y and z must be distinct")
    y_prime = frame.reflect_point(y)
    z_prime = frame.reflect_point(z)
    witnesses = [("p", frame.pole), ("y", y), ("y'", y_prime), ("z", z), ("z'", z_prime)]
    yz = join(y, z)
    ypzp = join(y_prime, z_prime)
    if yz == ypzp:
        return degenerate("nut", "line is its own reflection", witnesses)
    w = meet(yz, ypzp)
    witnesses.append(("yz^y'z'", w))
    k = w.kernels
    residual = k.dot(w.raw, frame.axis.raw)
    if k.is_zero(residual):
        return CheckReport("nut", Verdict.HOLDS, witnesses)
    return CheckReport("nut", Verdict.VIOLATED, witnesses, residual=k.scalar(residual))


def lemma_sack_check(frame: ReflectionFrame, u, v, m, r, s) -> CheckReport:
    """x = r'v ^ su lies on the line pm, via the inscribed hexagon on the axis chord uv."""
    if u == v:
        raise DegenerateInputError("chord endpoints must be distinct")
    for w in (u, v):
        if not frame.conic.contains(w):
            raise ProjectiveError(f"{w} is not on the conic")
        if not incident(w, frame.axis):
            raise ProjectiveError(f"{w} is not on the axis")
    for w in (r, s):
        if not frame.conic.contains(w):
            raise ProjectiveError(f"{w} is not on the conic")
    witnesses = [("p", frame.pole), ("u", u), ("v", v), ("m", m), ("r", r), ("s", s)]
    if r == s:
        return degenerate("sack", "tangent chord", witnesses)
    chord = join(r, s)
    if chord == frame.axis:
        return degenerate("sack", "chord lies along the axis", witnesses)
    if not incident(m, chord) or not incident(m, frame.axis):
        raise ProjectiveError("m must be the meet of the chord with the axis")

    r_prime = frame.reflect_point(r)
    s_prime = frame.reflect_point(s)
    witnesses += [("r'", r_prime), ("s'", s_prime)]
    try:
        x = meet(join(r_prime, v), join(s, u))
        z = meet(join(r, v), join(s_prime, u))
    except DegenerateInputError:
        return degenerate("sack", "derived meet undefined", witnesses)
    witnesses += [("x", x), ("z", z)]

    main = collinearity_residual(frame.pole, m, x)
    chain = collinearity_residual(z, m, x)
    if main.is_zero() and chain.is_zero():
        return CheckReport("sack", Verdict.HOLDS, witnesses)
    return CheckReport("sack", Verdict.VIOLATED, witnesses,
                       residual=main if not main.is_zero() else chain)


def pascal_check(conic: Conic, hexagon) -> CheckReport:
    """Meets of opposite sides of an inscribed hexagon are collinear.

    This is classical and unconditional, so VIOLATED here means an
    arithmetic bug rather than a geometric discovery; the checker exists
    as a high-volume exactness probe.
    """
    hexagon = tuple(hexagon)
    if len(hexagon) != 6:
        raise ProjectiveError("a hexagon needs six vertices")
    for w in hexagon:
        if not conic.contains(w):
            raise ProjectiveError(f"hexagon vertex {w} is off the conic")
    witnesses = [(f"p{k + 1}", w) for k, w in enumerate(hexagon)]
    for k in range(6):
        if hexagon[k] == hexagon[(k + 1) % 6]:
            return degenerate("pascal", "coincident adjacent vertices", witnesses)
    sides = tuple(join(hexagon[k], hexagon[(k + 1) % 6]) for k in range(6))
    for k in range(3):
        if sides[k] == sides[k + 3]:
            return degenerate("pascal", "opposite sides coincide", witnesses)
    meets = tuple(meet(sides[k], sides[k + 3]) for k in range(3))
    witnesses += [("x1", meets[0]), ("x2", meets[1]), ("x3", meets[2])]
    det = collinearity_residual(*meets)
    witnesses.append(("det", det))
    if det.is_zero():
        return CheckReport("pascal", Verdict.HOLDS, witnesses)
    return CheckReport("pascal", Verdict.VIOLATED, witnesses, residual=det)


def theorem_damn_check(scenario: ButterflyScenario) -> CheckReport:
    """The butterfly of the scenario's flavour, reported under its claim.

    damn: cr(p, j, m, i) = -1, confirmed independently by reflecting i onto
    j.  cutl: cr(m', p, m, q) = -1 in the real plane, with reflect(p) = q.
    The reflection uses only the pole and axis, never the axis-conic
    intersection points, so the check stays rational even when the axis
    misses the real conic.
    """
    flavour, pts = scenario.flavour, scenario.points
    claim = flavour.claim
    base = list(scenario.inputs())
    if scenario.degenerate_reason is not None:
        return degenerate(claim, scenario.degenerate_reason, base)
    d1, d2, conj = flavour.derived
    witnesses = base + [(n, pts[n]) for n in flavour.derived]
    try:
        ratio = cross_ratio(*(pts[n] for n in flavour.ratio))
    except DegenerateInputError as exc:
        return degenerate(claim, f"cross-ratio undefined: {exc}", witnesses)
    witnesses.append(("cr", ratio))
    if not ratio.is_harmonic():
        return CheckReport(claim, Verdict.VIOLATED, witnesses, residual=ratio.plus_one())

    axis = scenario.conic.polar(pts[conj])
    frame = ReflectionFrame(scenario.conic, axis)
    if frame.pole != pts[conj] or not incident(pts["m"], axis):
        raise AssertionError("polar frame lost its defining incidences; arithmetic bug")
    reflected = frame.reflect_point(pts[d1])
    witnesses += [("axis", axis), (f"reflect({d1})", reflected)]
    if reflected == pts[d2]:
        return CheckReport(claim, Verdict.HOLDS, witnesses)
    return CheckReport(claim, Verdict.VIOLATED, witnesses,
                       residual=_separation_residual(reflected, pts[d2]))


# one checker for both flavours; the claim comes from the scenario
theorem_cutl_check = theorem_damn_check
