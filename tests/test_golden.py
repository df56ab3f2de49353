"""Byte-for-byte golden outputs.

Campaign streams, ``verify`` reports, ``render`` figures, the worked
``demo`` and ``.scn`` serializations are a contract: the same input prints the same bytes on every version of the
kernel, whatever the scalar representation underneath.  The files under
``tests/golden/`` pin that contract.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only when the output format
changes on purpose.
"""

import io
from contextlib import redirect_stderr
from hashlib import sha256
from importlib import resources
from pathlib import Path
from random import Random

import pytest

from conic_butterfly import GaussianRational, PrimeFieldElement, RetryBudget
from conic_butterfly.cli import main
from conic_butterfly.fuzz import _RUNNERS
from conic_butterfly.projective import CrossRatioValue
from conic_butterfly.reports import format_value
from conic_butterfly.scenario_io import (_EXPECT_KINDS, _NAME_RE, CLAIM_ORDER, CLAIMS, Expect,
                                         parse_scenario, serialize_scenario)

GOLDEN = Path(__file__).parent / "golden"

FUZZ_STREAMS = {
    "fuzz_gauss_all_h10.txt": ["--seed", "7", "--count", "20", "--backend", "gauss",
                               "--height", "10"],
    "fuzz_gauss_damn_cutl_h50.txt": ["--seed", "11", "--count", "20", "--backend", "gauss",
                                     "--height", "50", "--checks", "damn,cutl"],
    "fuzz_prime_h50.txt": ["--seed", "13", "--count", "100", "--backend", "prime",
                           "--height", "50", "--checks", "mono,jap,nut,sack,pascal,damn"],
    # low heights, where draws collide and chords turn tangent: these pin the
    # rejection loops (retries=359 and retries=762) and the DEGENERATE reasons
    # (six cutl cells with three coincident points)
    "fuzz_gauss_damn_cutl_h2.txt": ["--seed", "9", "--count", "150", "--height", "2",
                                    "--checks", "damn,cutl"],
    "fuzz_gauss_pascal_sack_h1.txt": ["--seed", "3", "--count", "200", "--height", "1",
                                      "--checks", "pascal,sack"],
    # the lemma generators at height 1, which reach seven of their rejection
    # reasons (tangent pole line, tangent axis, point draw, l2 along py,
    # self-reflected line, degenerate pair, u equals y; retries=298)
    "fuzz_gauss_lemmas_h1.txt": ["--seed", "1", "--count", "300", "--backend", "gauss",
                                 "--height", "1", "--checks", "mono,jap,nut,sack"],
}
FIXTURES = ("butterfly_circle", "cutl_hyperbola", "lemma1")
DEMO_GOLDEN = "demo_lemma1.txt"

# Height-50 damn and cutl documents with one deliberately wrong expect line
# each.  Witnesses print canonical coordinates, but the residual of a wrong
# pin is computed from the raw representative the kernel built (coordinates
# with only their rational content removed, the unreduced cross-ratio pair),
# so these files pin those representatives.  Each document is cell 0 of
# `butterfly fuzz --seed 11 --height 50` for its claim, stored under
# tests/golden/ as pin_<name>.scn next to its verify_pin_<name>.txt.
PINS = {
    "damn_i": ("damn", "expect point i (1 : 2 : 3)"),
    "damn_j": ("damn", "expect point j (1 : 2 : 3)"),
    "damn_cr": ("damn", "expect ratio cr 2"),
    "cutl_p": ("cutl", "expect point p (1 : 2 : 3)"),
    "cutl_m": ("cutl", "expect point m' (1 : 2 : 3)"),
    "cutl_cr": ("cutl", "expect ratio cr 2"),
}

# `conic points` documents, one per backend: cell 0 of `butterfly fuzz
# --seed 11 --height 10 --checks damn` with its conic given by five of its
# conic points, and a wrong axis.  The axis is the polar of j, so its
# residual scales with the conic representative `conic_through_five` builds
# (on gauss by a non-real factor too: the points are not real), and these
# files pin that representative.
CONIC_PINS = {"points_gauss": GaussianRational, "points_prime": PrimeFieldElement}

# HOLDS documents of the path `butterfly verify` spends its time on: cell 0
# of `butterfly fuzz --seed 11 --height 10` for the claim and backend, with
# every witness whose name and kind the grammar accepts pinned by an expect
# line, so the report prints each point, line and cross-ratio three times
# (witness, expected, actual).  Stored as replay_<name>.scn next to its
# verify_replay_<name>.txt.
REPLAYS = {
    "damn_gauss": ("damn", GaussianRational),
    "sack_gauss": ("sack", GaussianRational),
    "damn_prime": ("damn", PrimeFieldElement),
}

# Hand-written HOLDS documents, one per backend: the butterfly over the unit
# circle with every point and pin spelled as `str` never prints it (a lead
# other than 1, a sign, a leading zero, a fraction in higher terms, a zero
# with a sign or a denominator, an imaginary part without a real part or a
# zero one, other blanks; on prime, a literal at or past p), so the report
# must print each coordinate from its value.  The two conic_ twins give the
# conic as `conic symmetric` at another scale and in spellings `str` never
# prints, and print the same reports.  Stored as replay_<name>.scn next to
# its verify_replay_<name>.txt; only the report is regenerated.
NONCANONICAL = ("noncanonical_gauss", "noncanonical_prime", "noncanonical_conic_gauss",
                "noncanonical_conic_prime")

# Documents verify rejects: the noncanonical conic documents with r moved off
# the conic.  The error line's residual is r's quadratic form under the
# conic's content-reduced representative, so it pins that representative.
# Stored as error_<name>.scn next to verify_error_<name>.txt, the text verify
# prints on stderr; only that text is regenerated.
ERRORS = ("offconic_gauss", "offconic_prime")

# Raw scale, which canonical text hides: one sha256 per backend and claim
# over cells 0..19 of `butterfly fuzz --seed 11 --height 50`, each cell
# contributing its verdict, its retry count, the conic's raw form and the
# raw representative of every witness (num and den of a cross-ratio).  A
# kernel change that scales a representative by a factor content reduction
# does not remove changes a digest here.
RAW_GOLDEN = "raw_h50.txt"
RAW_CELLS = 20


def _fixture(name: str):
    return resources.files("conic_butterfly") / "fixtures" / f"{name}.scn"


def _fuzz(argv: list, out: Path) -> int:
    return main(["fuzz", *argv, "--out", str(out)])


def _verify(name: str, out: Path) -> int:
    return main(["verify", str(_fixture(name)), "--out", str(out)])


def _demo(out: Path) -> int:
    return main(["demo", "lemma1", "--out", str(out)])


def _render(name: str, out: Path) -> int:
    return main(["render", str(_fixture(name)), "--out", str(out)])


def _verify_pin(name: str, out: Path) -> int:
    return main(["verify", str(GOLDEN / f"pin_{name}.scn"), "--out", str(out)])


def _pin_document(name: str) -> str:
    claim, expect = PINS[name]
    _, make_doc = _RUNNERS[claim](Random(f"11:0:{claim}"), GaussianRational, 50, RetryBudget(), 0)
    return serialize_scenario(make_doc()) + expect + "\n"


def _conic_pin_document(name: str) -> str:
    _, make_doc = _RUNNERS["damn"](Random("11:0:damn"), CONIC_PINS[name], 10, RetryBudget(), 0)
    doc = make_doc()
    five = " ".join(str(doc.points[n]) for n in ("a", "b", "r", "s", "f"))
    lines = [f"conic points {five}" if line.startswith("conic ") else line
             for line in serialize_scenario(doc).splitlines()]
    return "\n".join(lines) + "\nexpect line axis (1 : 2 : 3)\n"


def _replay_document(name: str) -> str:
    claim, field = REPLAYS[name]
    report, make_doc = _RUNNERS[claim](Random(f"11:0:{claim}"), field, 10, RetryBudget(), 0)
    doc = make_doc()
    for key, obj in report.witnesses:
        kind, _ = format_value(obj)
        if _NAME_RE.fullmatch(key) and kind in _EXPECT_KINDS:
            doc.expects.append(Expect(kind, key, obj))
    return serialize_scenario(doc)


def _verify_replay(name: str, out: Path) -> int:
    return main(["verify", str(GOLDEN / f"replay_{name}.scn"), "--out", str(out)])


def _verify_error(name: str) -> str:
    """What verify prints on stderr for the error document, after exiting 2."""
    err = io.StringIO()
    with redirect_stderr(err):
        status = main(["verify", str(GOLDEN / f"error_{name}.scn")])
    assert status == 2
    return err.getvalue()


def _raw(obj):
    if isinstance(obj, CrossRatioValue):
        return (str(obj.num), str(obj.den))
    return getattr(obj, "raw", None) or str(obj)


def _raw_digest(claim: str, field) -> str:
    h = sha256()
    for index in range(RAW_CELLS):
        budget = RetryBudget()
        report, make_doc = _RUNNERS[claim](Random(f"11:{index}:{claim}"), field, 50, budget, index)
        cell = (str(report.verdict), budget.spent, make_doc().conic.raw,
                tuple((name, _raw(obj)) for name, obj in report.witnesses))
        h.update(repr(cell).encode())
    return h.hexdigest()


def _raw_lines() -> str:
    return "".join(f"{backend} {claim} {_raw_digest(claim, field)}\n"
                   for backend, field in (("gauss", GaussianRational), ("prime", PrimeFieldElement))
                   for claim in CLAIM_ORDER if not (CLAIMS[claim].real and field is not GaussianRational))


def _serialize(name: str) -> str:
    return serialize_scenario(parse_scenario(_fixture(name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("golden", sorted(FUZZ_STREAMS))
def test_fuzz_stream(golden, tmp_path):
    out = tmp_path / golden
    assert _fuzz(FUZZ_STREAMS[golden], out) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_fuzz_stream_under_two_jobs(tmp_path):
    golden = "fuzz_gauss_all_h10.txt"
    out = tmp_path / golden
    assert _fuzz(FUZZ_STREAMS[golden] + ["--jobs", "2"], out) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_verify_report(name, tmp_path):
    out = tmp_path / f"{name}.txt"
    assert _verify(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"verify_{name}.txt").read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_render_figure(name, tmp_path):
    out = tmp_path / f"{name}.svg"
    assert _render(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"render_{name}.svg").read_bytes()


def test_demo_output(tmp_path):
    out = tmp_path / DEMO_GOLDEN
    assert _demo(out) == 0
    assert out.read_bytes() == (GOLDEN / DEMO_GOLDEN).read_bytes()


@pytest.mark.parametrize("name", sorted(PINS) + sorted(CONIC_PINS))
def test_raw_representatives(name, tmp_path):
    out = tmp_path / f"{name}.txt"
    assert _verify_pin(name, out) == 1
    assert out.read_bytes() == (GOLDEN / f"verify_pin_{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_replay_report(name, tmp_path):
    assert _replay_document(name) == (GOLDEN / f"replay_{name}.scn").read_text(encoding="utf-8")
    out = tmp_path / f"{name}.txt"
    assert _verify_replay(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"verify_replay_{name}.txt").read_bytes()


@pytest.mark.parametrize("name", NONCANONICAL)
def test_noncanonical_replay_report(name, tmp_path):
    out = tmp_path / f"{name}.txt"
    assert _verify_replay(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"verify_replay_{name}.txt").read_bytes()


@pytest.mark.parametrize("name", ERRORS)
def test_error_report(name):
    assert _verify_error(name) == (GOLDEN / f"verify_error_{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", FIXTURES)
def test_serialization(name):
    expected = (GOLDEN / f"serialize_{name}.scn").read_text(encoding="utf-8")
    assert _serialize(name) == expected


def test_raw_representatives_of_generated_cells():
    assert _raw_lines() == (GOLDEN / RAW_GOLDEN).read_text(encoding="utf-8")


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for golden, argv in FUZZ_STREAMS.items():
        _fuzz(argv, GOLDEN / golden)
    for name in FIXTURES:
        _verify(name, GOLDEN / f"verify_{name}.txt")
        (GOLDEN / f"serialize_{name}.scn").write_text(_serialize(name), encoding="utf-8")
        _render(name, GOLDEN / f"render_{name}.svg")
    _demo(GOLDEN / DEMO_GOLDEN)
    for name in PINS:
        (GOLDEN / f"pin_{name}.scn").write_text(_pin_document(name), encoding="utf-8")
        _verify_pin(name, GOLDEN / f"verify_pin_{name}.txt")
    for name in CONIC_PINS:
        (GOLDEN / f"pin_{name}.scn").write_text(_conic_pin_document(name), encoding="utf-8")
        _verify_pin(name, GOLDEN / f"verify_pin_{name}.txt")
    for name in REPLAYS:
        (GOLDEN / f"replay_{name}.scn").write_text(_replay_document(name), encoding="utf-8")
        _verify_replay(name, GOLDEN / f"verify_replay_{name}.txt")
    for name in NONCANONICAL:
        _verify_replay(name, GOLDEN / f"verify_replay_{name}.txt")
    for name in ERRORS:
        (GOLDEN / f"verify_error_{name}.txt").write_text(_verify_error(name), encoding="utf-8")
    (GOLDEN / RAW_GOLDEN).write_text(_raw_lines(), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
