"""End-to-end acceptance: one test and one printed pass/fail line per claim.

Each test re-derives its expected values from scratch (worked fixtures with
hand-checkable coordinates, or seeded sweeps with explicit budgets) and
asserts exact equality; the printed lines give a one-screen summary when the
suite runs under pytest.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from conic_butterfly.checks import (
    lemma_jap_check,
    lemma_mono_check,
    lemma_nut_check,
    lemma_sack_check,
    pascal_check,
    theorem_cutl_check,
    theorem_damn_check,
)
from conic_butterfly.conics import Conic, ConicParametrization, homogenize_affine_conic
from conic_butterfly.fuzz import CampaignConfig, run_campaign
from conic_butterfly.projective import (
    ProjLine,
    ProjPoint,
    Projectivity,
    cross_ratio,
    incident,
    join,
    meet,
)
from conic_butterfly.reflection import ReflectionFrame
from conic_butterfly.reports import Verdict
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenario_io import CLAIM_ORDER, parse_scenario, run_document
from conic_butterfly.scenarios import (
    build_scenario,
    random_hexagon,
    random_jap_inputs,
    random_mono_inputs,
    random_nut_inputs,
    random_reflection_frame,
    random_sack_inputs,
    random_scenario,
)
from generic_formulas import affine_squared_distance, harmonic, has_witness, to_affine

G = GaussianRational
P = PrimeFieldElement


def pt(*coords):
    return ProjPoint(tuple(G.coerce(c) for c in coords), G)


def affine(x, y):
    return pt(Fraction(x), Fraction(y), 1)


@contextmanager
def criterion(capsys, label, budget=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        with capsys.disabled():
            print(f"FAIL {label} ({elapsed:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - started
    ok = budget is None or elapsed < budget
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label} ({elapsed:.2f}s)", flush=True)
    assert ok, f"{label}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"


def test_1_worked_reflection_example(capsys, fixture_text):
    with criterion(capsys, "1 worked example: tangents, pole, harmonic reflection", 1.0):
        conic = Conic.from_upper_entries((0, "1/2", "1/2", 0, -1, 0), G)
        u, v = pt(0, 1, 0), pt(0, 0, 1)
        k = ProjLine((G(1), G(0), G(0)), G)

        assert conic.tangent_at(u) == ProjLine((G(1), G(0), G(-2)), G)  # x - 2z = 0
        assert conic.tangent_at(v) == ProjLine((G(1), G(-2), G(0)), G)  # x - 2y = 0
        pole = conic.pole(k)
        assert pole == pt(2, 1, 1)
        assert pole == pt(1, Fraction(1, 2), Fraction(1, 2))
        assert pole == meet(conic.tangent_at(u), conic.tangent_at(v))

        frame = ReflectionFrame(conic, k)
        y = pt(1, 1, 1)
        m = meet(join(pole, y), k)
        assert m == pt(0, 1, 1)
        y_prime = frame.reflect_point(y)
        assert y_prime == pt(1, 0, 0)
        ratio = cross_ratio(pole, y, m, y_prime)
        assert ratio == harmonic(G)
        assert frame.reflect_point(y_prime) == y

        reports = run_document(parse_scenario(fixture_text("lemma1")))
        assert [r.verdict for r in reports] == [Verdict.HOLDS, Verdict.HOLDS]


def test_2_projective_butterfly_sweep(capsys):
    with criterion(capsys, "2 projective butterfly: 1000 conics at height 50, exact", 60.0):
        for index in range(1000):
            rng = Random(f"7:{index}:damn")
            scenario = random_scenario(rng, G, 50, kind="damn")
            report = theorem_damn_check(scenario)
            assert report.verdict is Verdict.HOLDS, f"index {index}: {report.verdict}"
            assert report.witness("cr") == harmonic(G)
            assert report.witness("reflect(i)") == report.witness("j")


def test_3_hyperbola_two_branch_fixture(capsys, fixture_text):
    with criterion(capsys, "3 planar butterfly: hyperbola fixture values exact", 1.0):
        scenario = build_scenario(
            homogenize_affine_conic((1, -1, 0, 0, 0, -1), G),
            affine("-5/4", "3/4"), affine("5/4", "3/4"), affine("1/4", "3/4"),
            affine("5/4", "-3/4"), affine("29/20", "-21/20"),
            affine("13/12", "-5/12"), affine("17/8", "-15/8"), kind="cutl",
        )
        report = theorem_cutl_check(scenario)
        assert report.verdict is Verdict.HOLDS
        assert report.witness("p") == affine("1/2", "3/4")
        assert report.witness("q") == affine("-1/44", "3/4")
        assert report.witness("m'") == affine("25/4", "3/4")
        assert report.witness("cr") == harmonic(G)

        reports = run_document(parse_scenario(fixture_text("cutl_hyperbola")))
        assert [r.verdict for r in reports] == [Verdict.HOLDS, Verdict.HOLDS]


def test_4_circle_midpoint_corollary(capsys):
    with criterion(capsys, "4 circle midpoint: conjugate ideal, |pm|2 = |qm|2", 1.0):
        scenario = build_scenario(
            homogenize_affine_conic((1, 1, 0, 0, 0, -1), G),
            affine("-3/5", "4/5"), affine("3/5", "4/5"), affine(0, "4/5"),
            affine(0, 1), affine(0, -1),
            affine("4/5", "3/5"), affine("-36/85", "77/85"), kind="cutl",
        )
        report = theorem_cutl_check(scenario)
        assert report.verdict is Verdict.HOLDS
        m_prime = report.witness("m'")
        assert to_affine(m_prime) is None  # m is the midpoint, so m' is ideal
        assert affine_squared_distance(report.witness("p"), scenario.points["m"]) \
            == affine_squared_distance(report.witness("q"), scenario.points["m"])


def test_5_pascal_volume(capsys):
    with criterion(capsys, "5 pascal: 1000 exact + 100000 modular hexagons, det 0", 60.0):
        for index in range(1000):
            rng = Random(f"13:{index}:pascal")
            conic, hexagon = random_hexagon(rng, G, 10)
            report = pascal_check(conic, hexagon)
            assert report.verdict is Verdict.HOLDS, f"gauss index {index}"
            assert report.witness("det").is_zero()
        for index in range(100000):
            rng = Random(f"19:{index}:pascal")
            conic, hexagon = random_hexagon(rng, P, 50)
            report = pascal_check(conic, hexagon)
            assert report.verdict is Verdict.HOLDS, f"prime index {index}"
            assert report.witness("det").is_zero()


def _axis_points(axis):
    a, b, c = axis.coords
    if not c.is_zero():
        return pt(*(c, G(0), -a)), pt(*(G(0), c, -b))
    if not b.is_zero():
        return pt(*(b, -a, G(0))), pt(*(G(0), G(0), G(1)))
    return pt(0, 1, 0), pt(0, 0, 1)


def test_6_reflection_properties(capsys):
    with criterion(capsys, "6 reflection: involution/conic/axis/pencil, 1000 each"):
        per_frame = 10
        for index in range(100):
            rng = Random(f"23:{index}:frame")
            frame, base = random_reflection_frame(rng, G, 6)
            par = ConicParametrization(frame.conic, base)

            for _ in range(per_frame):
                y = ProjPoint(tuple(G.random(rng, 6) for _ in range(3)), G)
                if y == frame.pole:
                    y = pt(*_axis_points(frame.axis)[0].coords)
                assert frame.reflect_point(frame.reflect_point(y)) == y

            for _ in range(per_frame):
                w = par.point(G.random(rng, 6))
                assert frame.conic.contains(frame.reflect_point(w))

            p1, p2 = _axis_points(frame.axis)
            fixed = [p1, p2]
            for _ in range(per_frame - 2):
                lam = G.random(rng, 6)
                fixed.append(ProjPoint(tuple(x + lam * z
                                             for x, z in zip(p1.coords, p2.coords)), G))
            for w in fixed:
                assert incident(w, frame.axis)
                assert frame.reflect_point(w) == w

            for _ in range(per_frame):
                w = ProjPoint(tuple(G.random(rng, 6) for _ in range(3)), G)
                if w == frame.pole:
                    continue
                l = join(frame.pole, w)
                assert frame.reflect_line(l) == l


def test_7_lemma_suite(capsys):
    with criterion(capsys, "7 lemmas: mono/jap/nut/sack, 200 seeded each, exact"):
        for index in range(200):
            rng = Random(f"17:{index}:mono")
            report = lemma_mono_check(*random_mono_inputs(
                rng, G, 10, converse=bool(index % 2)))
            assert report.verdict is Verdict.HOLDS, f"mono index {index}"

            rng = Random(f"17:{index}:jap")
            report = lemma_jap_check(*random_jap_inputs(rng, G, 10))
            assert report.verdict is Verdict.HOLDS, f"jap index {index}"

            rng = Random(f"17:{index}:nut")
            report = lemma_nut_check(*random_nut_inputs(rng, G, 10))
            assert report.verdict is Verdict.HOLDS, f"nut index {index}"

            rng = Random(f"17:{index}:sack")
            report = lemma_sack_check(*random_sack_inputs(rng, G, 10))
            assert report.verdict is Verdict.HOLDS, f"sack index {index}"


def test_8_projective_covariance(capsys):
    with criterion(capsys, "8 covariance: 100 transformed scenarios match exactly"):
        for index in range(100):
            if index % 10 == 9:
                # every tenth scenario is forced degenerate: a tangent chord
                circle = homogenize_affine_conic((1, 1, 0, 0, 0, -1), G)
                scenario = build_scenario(
                    circle,
                    affine("-3/5", "4/5"), affine("3/5", "4/5"), affine(0, "4/5"),
                    affine(0, 1), affine(0, 1),
                    affine("4/5", "3/5"), affine("-36/85", "77/85"),
                )
            else:
                scenario = random_scenario(Random(f"29:{index}"), G, 10)
            t = Projectivity.random(Random(f"31:{index}"), G, 6)
            before = theorem_damn_check(scenario)
            after = theorem_damn_check(scenario.transform(t))
            assert before.verdict is after.verdict, f"index {index}"
            assert has_witness(before, "cr") == has_witness(after, "cr")
            if has_witness(before, "cr"):
                assert before.witness("cr") == after.witness("cr"), f"index {index}"


def test_9_campaign_determinism(capsys):
    with criterion(capsys, "9 determinism: campaign bytes stable across runs/workers"):
        configs = (
            CampaignConfig(101, 3, "gauss", 6, CLAIM_ORDER),
            CampaignConfig(202, 3, "prime", 6,
                           tuple(c for c in CLAIM_ORDER if c != "cutl")),
        )
        for config in configs:
            serial = "\n".join(run_campaign(config, jobs=1))
            again = "\n".join(run_campaign(config, jobs=1))
            parallel = "\n".join(run_campaign(config, jobs=2))
            assert serial == again, config.header()
            assert serial == parallel, config.header()
            assert serial.splitlines()[0] == config.header()
