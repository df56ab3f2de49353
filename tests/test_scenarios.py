import re
import sys
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest

from conic_butterfly import scenarios
from conic_butterfly.checks import theorem_damn_check
from conic_butterfly.conics import Conic, homogenize_affine_conic
from conic_butterfly.projective import (
    DegenerateInputError,
    ProjLine,
    ProjPoint,
    Projectivity,
    ProjectiveError,
    incident,
    join,
    meet,
)
from conic_butterfly.reflection import ReflectionFrame
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenario_io import CLAIMS
from conic_butterfly.scenarios import (
    ButterflyScenario,
    RetryBudget,
    RetryCapError,
    build_scenario,
    random_conic,
    random_hexagon,
    random_jap_inputs,
    random_mono_inputs,
    random_nut_inputs,
    random_reflection_frame,
    random_sack_inputs,
    random_scenario,
)

from generic_formulas import (affine_spec_from_conic, reference_base, reference_conic,
                              upper_entries)

G = GaussianRational
P = PrimeFieldElement


def pt(*coords):
    return ProjPoint(tuple(G.coerce(c) for c in coords), G)


def affine(x, y):
    return pt(Fraction(x), Fraction(y), 1)


CIRCLE = (1, 1, 0, 0, 0, -1)


class TestReference:
    def test_base_lies_on_reference(self):
        for field in (G, P):
            assert reference_conic(field).contains(reference_base(field))

    def test_affine_spec_round_trip(self):
        conic = homogenize_affine_conic(CIRCLE, G)
        spec = affine_spec_from_conic(conic)
        assert homogenize_affine_conic(spec, G) == conic

    def test_affine_spec_needs_real_conic(self):
        conic, _ = random_conic(Random(1), G, 4)
        if all(e.is_real() for e in upper_entries(conic)):
            pytest.skip("random draw landed on a real conic")
        with pytest.raises(ProjectiveError):
            affine_spec_from_conic(conic)


class TestRetryBudget:
    def test_cap_enforced(self):
        assert RetryBudget.CAP == 200
        budget = RetryBudget()
        for _ in range(RetryBudget.CAP):
            budget.tick()
        with pytest.raises(RetryCapError):
            budget.tick()

    def test_error_names_last_rejection(self):
        budget = RetryBudget()
        budget.spent = RetryBudget.CAP
        with pytest.raises(RetryCapError, match="tangent chord"):
            budget.tick("tangent chord")

    @pytest.mark.parametrize("field", [G, P], ids=("gauss", "prime"))
    def test_singular_projectivity_draws_are_budgeted(self, field):
        budget = RetryBudget()
        with pytest.raises(RetryCapError, match="singular projectivity"):
            Projectivity.random(_ConstantRng(), field, 5, budget=budget)
        assert budget.spent == RetryBudget.CAP + 1
        with pytest.raises(RetryCapError, match="singular projectivity"):
            random_conic(_ConstantRng(), field, 5)

    @pytest.mark.parametrize("field", [G, P], ids=("gauss", "prime"))
    def test_unbudgeted_projectivity_draws_get_a_budget(self, field):
        """Without a budget the draw takes a fresh one; the rng gives up long
        after the budget should, so a loop with no budget fails, not hangs."""
        rng = _BoundedConstantRng()
        with pytest.raises(RetryCapError, match="singular projectivity"):
            Projectivity.random(rng, field, 5)
        assert rng.calls < _BoundedConstantRng.LIMIT

    def test_budget_leaves_the_draw_alone(self):
        plain = Projectivity.random(Random(9), G, 6)
        assert Projectivity.random(Random(9), G, 6, budget=RetryBudget()) == plain
        assert random_conic(Random(9), G, 6) == random_conic(Random(9), G, 6, budget=RetryBudget())


class _ConstantRng(Random):
    """Every draw is 1, so every random 3x3 matrix has equal entries.  Both
    backends draw through ``getrandbits``, the way ``randint`` and
    ``randrange`` do."""

    def getrandbits(self, k):
        return 1


class _BoundedConstantRng(_ConstantRng):
    """A `_ConstantRng` that raises after LIMIT draws."""

    LIMIT = 20_000

    def __init__(self):
        self.calls = 0
        super().__init__()

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > self.LIMIT:
            raise RuntimeError(f"more than {self.LIMIT} draws: the loop has no budget")
        return 1


class TestBuildScenario:
    def test_build_validates_membership(self):
        conic = homogenize_affine_conic(CIRCLE, G)
        with pytest.raises(ProjectiveError):
            build_scenario(conic, affine(0, 0), affine(3, 4), affine(1, 1),
                           affine(0, 1), affine(0, -1), affine(1, 0), affine(-1, 0))

    def test_build_rejects_coincident_ab(self):
        conic = homogenize_affine_conic(CIRCLE, G)
        a = affine(0, 1)
        with pytest.raises(DegenerateInputError):
            build_scenario(conic, a, a, affine(0, "1/2"),
                           affine(1, 0), affine(-1, 0), affine("3/5", "4/5"), affine("-3/5", "-4/5"))

    def test_build_requires_m_on_chord(self):
        conic = homogenize_affine_conic(CIRCLE, G)
        with pytest.raises(ProjectiveError):
            build_scenario(conic, affine(0, 1), affine(0, -1), affine(1, 1),
                           affine(1, 0), affine(-1, 0), affine("3/5", "4/5"), affine("-3/5", "-4/5"))

    def test_chord_must_contain_m(self):
        conic = homogenize_affine_conic(CIRCLE, G)
        with pytest.raises(ProjectiveError):
            build_scenario(conic, affine(0, 1), affine(0, -1), affine(0, 0),
                           affine(1, 0), affine("3/5", "4/5"),
                           affine("4/5", "3/5"), affine("-4/5", "-3/5"))


class TestRandomButterfly:
    def test_structural_invariants(self):
        for seed in range(6):
            sc = random_scenario(Random(seed), height_bound=6)
            assert sc.degenerate_reason is None
            p = sc.points
            for n in ("a", "b", "r", "s", "f", "g"):
                assert sc.conic.contains(p[n])
            ab = join(p["a"], p["b"])
            assert incident(p["m"], ab)
            assert incident(p["m"], join(p["r"], p["s"]))
            assert incident(p["m"], join(p["f"], p["g"]))
            assert incident(p["i"], ab) and incident(p["j"], ab)
            assert incident(p["p"], ab)

    def test_seeded_determinism(self):
        one = random_scenario(Random(99), height_bound=7)
        two = random_scenario(Random(99), height_bound=7)
        assert one.conic == two.conic
        assert [w for _n, w in one.inputs()] == [w for _n, w in two.inputs()]

    def test_chord_endpoints_stay_at_chart_size(self):
        """s and g are chart points, like r, so they carry no large Gaussian
        common factor: on ten height-50 cells of a `butterfly fuzz --seed 11`
        campaign their largest raw part is at most twice r's (a chord solve
        through `second_intersection` gives about 4.5 times)."""
        def raw_bits(w):
            return max(max(abs(c.a), abs(c.b), c.d).bit_length() for c in w.coords)

        for index in range(10):
            p = random_scenario(Random(f"11:{index}:damn"), G, 50).points
            assert max(raw_bits(p["s"]), raw_bits(p["g"])) <= 2 * raw_bits(p["r"])

    def test_derived_points_stay_at_chart_size(self):
        """i and j are chart meets and p is a - mu*b, so none carries a large
        Gaussian common factor: on ten height-50 cells of a `butterfly fuzz
        --seed 11` campaign, i and j stay within 1.5 times r's raw size and p
        within 1.2 times m's (`meet` of two `join`s and `harmonic_conjugate`
        give at least 2.9 and 2.4 times)."""
        def raw_bits(w):
            return max(max(abs(c.a), abs(c.b), c.d).bit_length() for c in w.coords)

        for index in range(10):
            p = random_scenario(Random(f"11:{index}:damn"), G, 50).points
            assert max(raw_bits(p["i"]), raw_bits(p["j"])) <= 1.5 * raw_bits(p["r"])
            assert raw_bits(p["p"]) <= 1.2 * raw_bits(p["m"])

    @pytest.mark.parametrize("kind,field,height", [
        ("damn", G, 3), ("damn", G, 10), ("damn", G, 50),
        ("cutl", G, 3), ("cutl", G, 10), ("cutl", G, 50), ("damn", P, 50)])
    def test_derived_points_match_the_generic_route(self, kind, field, height):
        """A generated scenario passes `build_scenario` unchanged, so it passes
        the tests of given points that the generator skips, its chart having
        put them on the conic; and the chart-built meets and conjugate are the
        points `build_scenario` derives with `meet`, `join` and
        `harmonic_conjugate`."""
        for index in range(100):
            sc = random_scenario(Random(f"{height}:{index}:{kind}"), field, height, kind=kind)
            generic = build_scenario(sc.conic, *(w for _n, w in sc.inputs()), kind=kind)
            assert generic.degenerate_reason is None
            assert generic.conic.raw == sc.conic.raw
            assert generic.points == sc.points

    def test_prime_backend(self):
        sc = random_scenario(Random(3), P, height_bound=6)
        assert sc.field is P
        assert sc.degenerate_reason is None
        assert sc.conic.contains(sc.points["a"])


@pytest.mark.parametrize("kind, field, height", [
    ("damn", G, 1), ("damn", G, 2), ("damn", G, 3), ("cutl", G, 2), ("cutl", G, 3),
    ("sack", G, 1), ("sack", G, 2), ("sack", G, 3), ("damn", P, 1), ("sack", P, 1)])
def test_chord_ends_are_pairwise_distinct(kind, field, height):
    """A chord drawn through m never ends at a, b or an end of the first
    chord (u, v for sack), so the generator does not test for it: the line
    through m and such an end is ab, the first chord or uv, which meets the
    conic only at its two ends.  Low heights make parameter collisions common.
    cutl starts at height 2, since its only real height-1 parameters are -1, 0
    and 1; the prime draw ignores the height."""
    for index in range(200):
        rng = Random(f"{height}:{index}:{kind}")
        if kind == "sack":
            _frame, u, v, _m, r, s = random_sack_inputs(rng, field, height)
            ends = [u, v, r, s]
        else:
            ends = [w for n, w in random_scenario(rng, field, height, kind=kind).inputs() if n != "m"]
        assert len(set(ends)) == len(ends)


class TestRandomPlanar:
    def test_structural_invariants(self):
        for seed in range(4):
            sc = random_scenario(Random(seed), height_bound=6, kind="cutl")
            assert sc.degenerate_reason is None
            for _name, w in sc.inputs():
                assert w.is_real()
            p = sc.points
            assert sc.conic.contains(p["r"]) and sc.conic.contains(p["v"])
            assert incident(p["m"], join(p["a"], p["b"]))


class TestDispatch:
    def test_kinds(self):
        for kind in ("damn", "cutl"):
            sc = random_scenario(Random(1), kind=kind)
            assert isinstance(sc, ButterflyScenario)
            assert sc.flavour.claim == kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_scenario(Random(1), kind="bogus")
        with pytest.raises(ValueError):
            build_scenario(homogenize_affine_conic(CIRCLE, G), *[affine(0, 1)] * 7, kind="bogus")

    def test_cutl_rejects_prime_backend(self):
        with pytest.raises(ProjectiveError):
            random_scenario(Random(1), P, kind="cutl")


class TestLemmaInputs:
    def test_reflection_frame_plain(self):
        frame, base = random_reflection_frame(Random(2), height_bound=6)
        assert not incident(frame.pole, frame.axis)
        assert frame.conic.contains(base)

    def test_reflection_frame_with_chord(self):
        """The chord frame that random_sack_inputs draws: u and v are distinct
        conic points, the axis is their join, and the pole is off it."""
        frame, u, v, _m, _r, _s = random_sack_inputs(Random(2), height_bound=6)
        assert frame.conic.contains(u) and frame.conic.contains(v)
        assert u != v
        assert join(u, v) == frame.axis
        assert not incident(frame.pole, frame.axis)

    def test_mono_forward_candidate_is_axis_meet(self):
        frame, l, y, y_prime, m = random_mono_inputs(Random(4))
        assert m == meet(l, frame.axis)
        assert frame.conic.contains(y) and frame.conic.contains(y_prime)
        assert incident(frame.pole, l)

    def test_mono_converse_candidate_off_axis(self):
        frame, l, _y, _y_prime, m = random_mono_inputs(Random(4), converse=True)
        assert incident(m, l)
        assert m != meet(l, frame.axis)

    def test_jap_inputs(self):
        frame, y, u, l2 = random_jap_inputs(Random(6))
        assert incident(u, frame.axis)
        assert incident(frame.pole, l2)
        assert y != frame.pole

    def test_jap_rejections_in_order(self, monkeypatch):
        """Scripted draws: y at the pole, then a y whose line to u passes the
        pole, then a w at the pole; each is rejected once, in that order."""
        frame = ReflectionFrame(homogenize_affine_conic(CIRCLE, G), ProjLine.parse("(1 : 0 : 0)", G))
        first = scenarios._second_point_on(frame.axis, frame.pole)
        u = scenarios._point_along(first, G.one(), scenarios._second_point_on(frame.axis, first))
        y, w = ProjPoint.parse("(1 : 2 : 3)", G), ProjPoint.parse("(1 : 1 : 1)", G)
        draws = iter([frame.pole, scenarios._point_along(frame.pole, G.one(), u), y, frame.pole, y, w])
        monkeypatch.setattr(scenarios, "random_reflection_frame", lambda *a, **kw: (frame, None))
        monkeypatch.setattr(scenarios, "_random_point", lambda *a: next(draws))
        monkeypatch.setattr(scenarios, "_random_nonzero", lambda *a: G.one())
        reasons = []
        inputs = random_jap_inputs(Random(0), G, budget=SimpleNamespace(tick=reasons.append))
        assert reasons == ["y at pole", "yu through pole", "w at pole"]
        assert inputs == (frame, y, u, join(frame.pole, w))
        assert next(draws, None) is None

    def test_nut_inputs(self):
        frame, y, z = random_nut_inputs(Random(7))
        assert y != z
        assert not incident(frame.pole, join(y, z))

    @pytest.mark.parametrize("field", [G, P], ids=["gauss", "prime"])
    @pytest.mark.parametrize("draw, charts", [(random_jap_inputs, 0), (random_nut_inputs, 0),
                                              (random_mono_inputs, 1)], ids=["jap", "nut", "mono"])
    def test_only_mono_builds_a_chart(self, monkeypatch, field, draw, charts):
        """Jap and nut draw their points off the conic, so they build no chart;
        mono draws y from the chart of the frame's conic."""
        built = []

        class Recording(scenarios.ConicParametrization):
            __slots__ = ()

            def __init__(self, conic, base):
                super().__init__(conic, base)
                built.append(self)

        monkeypatch.setattr(scenarios, "ConicParametrization", Recording)
        for seed in range(5):
            built.clear()
            frame = draw(Random(seed), field, 8)[0]
            assert len(built) == charts
            assert all(par.conic is frame.conic for par in built)

    def test_sack_inputs(self):
        frame, u, v, m, r, s = random_sack_inputs(Random(8))
        assert frame.conic.contains(u) and frame.conic.contains(v)
        assert join(u, v) == frame.axis
        assert incident(m, frame.axis)
        assert incident(m, join(r, s))
        assert r != s

    def test_hexagon(self):
        conic, hexagon = random_hexagon(Random(9), height_bound=6)
        assert len(hexagon) == 6
        assert len(set(hexagon)) == 6
        for w in hexagon:
            assert conic.contains(w)


# ----------------------------------------------------------------------
# degenerate reasons name each flavour's own chord labels

_CIRCLE_POINTS = {
    "a": ("-3/5", "4/5"), "b": ("3/5", "4/5"), "m": (0, "4/5"),
    "r": (0, 1), "s": (0, -1), "c": ("4/5", "3/5"), "d": ("-36/85", "77/85"),
}


def _build(kind, **moved):
    """The circle fixture as a `kind` scenario, with some points replaced."""
    pts = [moved.get(n, affine(*xy)) for n, xy in _CIRCLE_POINTS.items()]
    return build_scenario(homogenize_affine_conic(CIRCLE, G), *pts, kind=kind)


_LABEL = {"damn": "(f,g)", "cutl": "(u,v)"}


@pytest.mark.parametrize("kind", ["damn", "cutl"])
class TestDegenerateReasons:
    def test_tangent_second_chord_names_its_label(self, kind):
        sc = _build(kind, d=affine("4/5", "3/5"))
        assert sc.degenerate_reason == f"tangent chord {_LABEL[kind]}"
        report = theorem_damn_check(sc)
        assert (report.claim, report.reason) == (kind, f"tangent chord {_LABEL[kind]}")

    def test_tangent_first_chord(self, kind):
        assert _build(kind, s=affine(0, 1)).degenerate_reason == "tangent chord (r,s)"

    def test_coincident_chords(self, kind):
        sc = _build(kind, c=affine(0, -1), d=affine(0, 1))
        assert sc.degenerate_reason == "coincident chords"

    def test_chord_along_ab(self, kind):
        sc = _build(kind, c=affine("-3/5", "4/5"), d=affine("3/5", "4/5"))
        assert sc.degenerate_reason == "chord coincides with ab"


def test_cutl_complex_input_names_the_point():
    i = G(0, 1)
    with pytest.raises(ProjectiveError, match=r"requires real coordinates, but r = "):
        _build("cutl", r=pt(i, 0, 1))


# ----------------------------------------------------------------------
# every raise of the butterfly validation, on generated scenarios


_VALIDATED = [("damn", G), ("damn", P), ("cutl", G)]


def _generated(kind, field):
    """A height-10 generated scenario: its flavour, conic, the seven inputs
    by name and the derived (d1, d2, conj) the generator hands in."""
    sc = random_scenario(Random(f"validate:{kind}"), field, 10, kind=kind)
    pts = dict(sc.points)
    return sc.flavour, sc.conic, pts, [pts[n] for n in sc.flavour.derived]


def _given(flavour, pts, **moved):
    """The seven inputs with some, named as in the damn flavour (c, d for
    the second chord), replaced by others of `pts`."""
    names = dict(zip("abmrscd", flavour.inputs))
    given = {n: pts[names[n]] for n in "abmrscd"}
    given.update({n: pts[names.get(other, other)] for n, other in moved.items()})
    return tuple(given[n] for n in "abmrscd")


def _rebuild(flavour, conic, pts, derived=None, **moved):
    """`_build_scenario`, which tests incidences only, on `_given` inputs."""
    return scenarios._build_scenario(flavour, conic, _given(flavour, pts, **moved), derived)


def _build_given(flavour, conic, pts, **moved):
    """`build_scenario`, which also tests that the inputs lie on the conic, on `_given` inputs."""
    return build_scenario(conic, *_given(flavour, pts, **moved), kind=flavour.claim)


@pytest.mark.parametrize("kind,field", _VALIDATED, ids=("damn-gauss", "damn-prime", "cutl-gauss"))
class TestValidation:
    def test_generated_inputs_rebuild_the_scenario(self, kind, field):
        flavour, conic, pts, derived = _generated(kind, field)
        sc = _rebuild(flavour, conic, pts, derived)
        assert sc.degenerate_reason is None
        assert {n: w.raw for n, w in sc.points.items()} == {n: w.raw for n, w in pts.items()}
        sc = _rebuild(flavour, conic, pts)
        assert sc.degenerate_reason is None
        assert sc.points == pts

    def test_inputs_on_the_conic(self, kind, field):
        flavour, conic, pts, _ = _generated(kind, field)
        with pytest.raises(ProjectiveError, match=r"^\(.*\) is not on the conic$"):
            _build_given(flavour, conic, pts, a="m")
        label = f"({flavour.inputs[5]},{flavour.inputs[6]})"
        with pytest.raises(ProjectiveError, match=r"^chord point \(.*\) of \(r,s\) is not on the conic$"):
            _build_given(flavour, conic, pts, s="m")
        with pytest.raises(ProjectiveError, match=rf"^chord point \(.*\) of {re.escape(label)} is not"):
            _build_given(flavour, conic, pts, c="m")

    def test_a_generated_cell_tests_only_its_chart_base(self, kind, field, monkeypatch):
        """A campaign cell makes one `Conic.contains` call, the chart's test
        of its base: the chart puts a, b and the chord ends on the conic, so
        neither the builder nor the checker tests them again."""
        callers = []
        contains = Conic.contains

        def recording(conic, p):
            callers.append(sys._getframe(1).f_code.co_name)
            return contains(conic, p)

        monkeypatch.setattr(Conic, "contains", recording)
        for index in range(5):
            callers.clear()
            CLAIMS[kind].cell(Random(f"validate:{index}:{kind}"), field, 10, RetryBudget(), index)
            assert callers == ["__init__"]  # ConicParametrization's

    def test_m_inside_ab(self, kind, field):
        flavour, conic, pts, _ = _generated(kind, field)
        with pytest.raises(DegenerateInputError, match="^a and b must be distinct$"):
            _rebuild(flavour, conic, pts, b="a")
        with pytest.raises(ProjectiveError, match="^m must differ from a and b$"):
            _rebuild(flavour, conic, pts, m="b")
        with pytest.raises(ProjectiveError, match="^m must lie on the chord ab$"):
            _rebuild(flavour, conic, pts, m="r")

    def test_chords_through_m(self, kind, field):
        flavour, conic, pts, _ = _generated(kind, field)
        with pytest.raises(ProjectiveError, match=r"^chord \(r,s\) does not pass through m$"):
            _rebuild(flavour, conic, pts, s="c")
        label = re.escape(f"({flavour.inputs[5]},{flavour.inputs[6]})")
        with pytest.raises(ProjectiveError, match=rf"^chord {label} does not pass through m$"):
            _rebuild(flavour, conic, pts, d="s")

    def test_degenerate_chords(self, kind, field):
        """Each collapse has its reason.  Past these, every crosswise meet is
        defined, so the builder has no reason for an undefined one: a
        crosswise pair such as (r, g) coincides only when g = r, and then
        the second chord, through m and r, is the first; a crosswise join
        along ab takes r and g from {a, b}, and then the chord through r and
        m is ab itself.  Both cases are below."""
        flavour, conic, pts, derived = _generated(kind, field)
        for given_derived in (derived, None):
            for moved, reason in ((dict(s="r"), "tangent chord (r,s)"),
                                  (dict(r="a", s="b"), "chord coincides with ab"),
                                  (dict(c="a", d="b"), "chord coincides with ab"),
                                  (dict(r="a", s="b", c="a", d="b"), "chord coincides with ab"),
                                  (dict(c="s", d="r"), "coincident chords"),
                                  (dict(c="r", d="s"), "coincident chords")):
                sc = _rebuild(flavour, conic, pts, given_derived, **moved)
                assert sc.degenerate_reason == reason

    def test_derived_conjugate_on_ab_other_than_m(self, kind, field):
        flavour, conic, pts, derived = _generated(kind, field)
        message = rf"^{re.escape(flavour.derived[2])} is not a point of ab other than m$"
        for conj in (pts["m"], pts["r"], pts[flavour.inputs[6]]):
            with pytest.raises(ProjectiveError, match=message):
                _rebuild(flavour, conic, pts, derived[:2] + [conj])

    def test_derived_meets_on_ab_and_their_joins(self, kind, field):
        flavour, conic, pts, derived = _generated(kind, field)
        d1, d2, conj = derived
        (e1, _), (_, e4) = flavour.crosswise
        message = "^a derived meet is off ab or off its crosswise join$"
        # swapped: each on ab, off its own join; a crosswise end: on its join, off ab
        for meets in ((d2, d1), (pts[e1], d2), (d1, pts[e4]), (conj, d2), (d1, pts["a"])):
            with pytest.raises(ProjectiveError, match=message):
                _rebuild(flavour, conic, pts, list(meets) + [conj])
