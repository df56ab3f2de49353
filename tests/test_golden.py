"""Byte-for-byte golden outputs.

Campaign streams, ``verify`` reports, ``render`` figures and errors, the
worked ``demo`` and ``.scn`` documents are a contract: the same input prints
the same bytes on every version of the kernel, whatever the scalar
representation underneath.  The files under ``tests/golden/`` pin that
contract.  ``GOLDENS`` names each file the code produces, in the order they
are written: a ``butterfly`` run (argv from the repository root, exit status
and the stream that holds the golden) or the function that builds a
document.  ``INPUTS`` names the hand-written documents.  Adding a golden is
one table line: tier-1 compares it, ``_regenerate`` writes it, and CI runs
each ``Cli`` entry through the installed ``butterfly`` script.  Regenerate
with ``PYTHONPATH=src python tests/test_golden.py`` only when the output
format changes on purpose.
"""

import io
import os
from contextlib import redirect_stderr
from functools import partial
from hashlib import sha256
from pathlib import Path
from random import Random
from typing import NamedTuple

import pytest

from conic_butterfly import GaussianRational, PrimeFieldElement, RetryBudget
from conic_butterfly.cli import main
from conic_butterfly.fuzz import _RUNNERS
from conic_butterfly.projective import CrossRatioValue
from conic_butterfly.reports import format_value
from conic_butterfly.scenario_io import (_EXPECT_KINDS, _NAME_RE, CLAIM_ORDER, CLAIMS, Expect,
                                         parse_scenario, serialize_scenario)

ROOT = Path(__file__).resolve().parent.parent
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
# prints, and print the same reports.  Stored as replay_<name>.scn, an
# input, next to its verify_replay_<name>.txt.
NONCANONICAL = ("noncanonical_gauss", "noncanonical_prime", "noncanonical_conic_gauss",
                "noncanonical_conic_prime")

# Documents verify rejects: the noncanonical conic documents with r moved off
# the conic.  The error line's residual is r's quadratic form under the
# conic's content-reduced representative, so it pins that representative.
# Stored as error_<name>.scn, an input, next to verify_error_<name>.txt, the
# text verify prints on stderr.
ERRORS = ("offconic_gauss", "offconic_prime")

# Raw scale, which canonical text hides: one sha256 per backend and claim
# over cells 0..19 of `butterfly fuzz --seed 11 --height 50`, each cell
# contributing its verdict, its retry count, the conic's raw form and the
# raw representative of every witness (num and den of a cross-ratio).  A
# kernel change that scales a representative by a factor content reduction
# does not remove changes a digest here.  Stored as raw_h50.txt.
RAW_CELLS = 20


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


def _fixture(name: str) -> str:
    return f"src/conic_butterfly/fixtures/{name}.scn"


def _serialize(name: str) -> str:
    return serialize_scenario(parse_scenario((ROOT / _fixture(name)).read_text(encoding="utf-8")))


class Cli(NamedTuple):
    """A `butterfly` run from the repository root whose output is the golden."""
    argv: tuple
    status: int = 0
    route: str = "stdout"  # or "out", the file render's --out names, or "stderr"


def _verify(document: str, *outcome) -> Cli:
    """`butterfly verify` on a golden document; `outcome` is Cli's status and route."""
    return Cli(("verify", f"tests/golden/{document}"), *outcome)


GOLDENS = {
    **{name: Cli(("fuzz", *argv)) for name, argv in FUZZ_STREAMS.items()},
    **{golden: entry for name in FIXTURES for golden, entry in (
        (f"verify_{name}.txt", Cli(("verify", _fixture(name)))),
        (f"serialize_{name}.scn", partial(_serialize, name)),
        (f"render_{name}.svg", Cli(("render", _fixture(name)), route="out")))},
    "demo_lemma1.txt": Cli(("demo", "lemma1")),
    **{f"pin_{name}.scn": partial(_pin_document, name) for name in PINS},
    **{f"pin_{name}.scn": partial(_conic_pin_document, name) for name in CONIC_PINS},
    **{f"verify_pin_{name}.txt": _verify(f"pin_{name}.scn", 1) for name in [*PINS, *CONIC_PINS]},
    **{f"replay_{name}.scn": partial(_replay_document, name) for name in REPLAYS},
    **{f"verify_replay_{name}.txt": _verify(f"replay_{name}.scn") for name in [*REPLAYS, *NONCANONICAL]},
    **{f"verify_error_{name}.txt": _verify(f"error_{name}.scn", 2, "stderr") for name in ERRORS},
    # a document that verifies but names no point on the conic, and no base
    "render_nobase_nut.txt": Cli(("render", "tests/golden/nobase_nut.scn", "--out", "/dev/null"),
                                 2, "stderr"),
    "raw_h50.txt": _raw_lines,
}
INPUTS = (*(f"replay_{name}.scn" for name in NONCANONICAL), *(f"error_{name}.scn" for name in ERRORS),
          "nobase_nut.scn")
# the golden documents that parse: verify rejects the others with exit status 2
DOCUMENTS = tuple(name for name in (*GOLDENS, *INPUTS)
                  if name.endswith(".scn") and _verify(name, 2, "stderr") not in GOLDENS.values())


def _produce(name: str, out: Path) -> None:
    """Write the file `GOLDENS[name]` describes to `out`; run from ROOT."""
    entry = GOLDENS[name]
    if not isinstance(entry, Cli):
        out.write_text(entry(), encoding="utf-8")
        return
    if entry.route == "stderr":
        err = io.StringIO()
        with redirect_stderr(err):
            status = main(list(entry.argv))
        out.write_text(err.getvalue(), encoding="utf-8")
    else:
        status = main([*entry.argv, "--out", str(out)])
    assert status == entry.status


@pytest.mark.parametrize("name", GOLDENS)
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    _produce(name, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_fuzz_stream_under_two_jobs(tmp_path):
    golden = "fuzz_gauss_all_h10.txt"
    out = tmp_path / golden
    assert main([*GOLDENS[golden].argv, "--jobs", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_every_golden_file_is_produced_or_an_input():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted([*GOLDENS, *INPUTS])


def _regenerate() -> None:
    os.chdir(ROOT)
    for name in GOLDENS:
        _produce(name, GOLDEN / name)


if __name__ == "__main__":
    _regenerate()
