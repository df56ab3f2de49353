"""The mutation catalogue and its runner: each entry breaks one guard of the
package, and a test must notice.

Run it from the repository root, with pytest and Hypothesis installed:

    python tests/mutants.py              # every entry
    python tests/mutants.py LABEL ...    # the named entries

For each entry the runner copies ``src/`` and ``tests/`` to a temporary
directory, replaces the entry's old text by its new text, and runs the
entry's test files there with ``pytest -x`` under the Hypothesis profile
``mutants`` (registered in ``conftest.py``: no shrink or explain phase, since
a kill needs no shrunk example).  The old text must occur exactly once in
its file; an entry whose text a refactor has moved or changed is stale.
A mutant whose tests all pass survives: its guard has no test.  The runner
exits 1 on any survivor, stale entry or pytest error.

A change that adds a guard adds its mutant here.  A survivor is a missing
test: mend the tests, never the entry.  ``test_mutants.py`` checks in tier-1
that every entry still applies.  This module is not collected by pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per entry; the slowest kill takes well under a minute


class Mutant(NamedTuple):
    label: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # test files, relative to the repository root


SCALARS = "src/conic_butterfly/scalars.py"
CHECKS = "src/conic_butterfly/checks.py"
ORACLE = ("tests/test_kernel_oracle.py",)
PROJECTIVE = "src/conic_butterfly/projective.py"
SCENARIO_IO = "src/conic_butterfly/scenario_io.py"
PARSED_TEXT = ("tests/test_projective.py", "tests/test_kernel_oracle.py")
CHECK_TESTS = ("tests/test_checks.py",)
SCENARIOS = "src/conic_butterfly/scenarios.py"
SCENARIO_TESTS = ("tests/test_scenarios.py",)

CATALOGUE = (
    # pascal_check must test all three pairs of opposite sides
    Mutant("pascal opposite sides: range(2)", CHECKS,
           "    for k in range(3):\n        if sides[k] == sides[k + 3]:",
           "    for k in range(2):\n        if sides[k] == sides[k + 3]:", CHECK_TESTS),
    # each checker's VIOLATED return must carry the exact residual
    Mutant("mono forward residual: cr for cr + 1", CHECKS,
           "residual = ratio.plus_one() if at_axis", "residual = ratio if at_axis", CHECK_TESTS),
    Mutant("mono converse residual: sign flip", CHECKS,
           "else _separation_residual(m, n)", "else _separation_residual(n, m)", CHECK_TESTS),
    Mutant("jap residual: sign flip", CHECKS,
           "residual=_separation_residual(reflected, t_prime))",
           "residual=_separation_residual(t_prime, reflected))", CHECK_TESTS),
    Mutant("nut residual: sign flip", CHECKS,
           "residual=k.scalar(residual))", "residual=k.scalar(k.neg(residual)))", CHECK_TESTS),
    Mutant("sack residual: chain before main", CHECKS,
           "residual=main if not main.is_zero() else chain)",
           "residual=chain if not chain.is_zero() else main)", CHECK_TESTS),
    Mutant("pascal residual: sign flip", CHECKS,
           "Verdict.VIOLATED, witnesses, residual=det)", "Verdict.VIOLATED, witnesses, residual=-det)",
           CHECK_TESTS),
    Mutant("butterfly cross-ratio route residual: cr for cr + 1", CHECKS,
           "residual=ratio.plus_one())", "residual=ratio)", CHECK_TESTS),
    Mutant("butterfly reflection route residual: sign flip", CHECKS,
           "residual=_separation_residual(reflected, pts[d2]))",
           "residual=_separation_residual(pts[d2], reflected))", CHECK_TESTS),
    # sack classifies a hexagon connector that is no line
    Mutant("sack derived meet: except never matches", CHECKS,
           "    except DegenerateInputError:\n        return degenerate(\"sack\"",
           "    except TypeError:\n        return degenerate(\"sack\"", CHECK_TESTS),
    # the arithmetic under every check: a kernel sign, the homology's factor 2
    # on points and lines, and the chord partner's doubling (on prime, where
    # content reduction is the identity, it scales the raw point)
    Mutant("prime cross: middle entry sign flip", SCALARS,
           "(u2 * v0 - u0 * v2) % _PRIME, (u0 * v1 - u1 * v0) % _PRIME)\n",
           "(u0 * v2 - u2 * v0) % _PRIME, (u0 * v1 - u1 * v0) % _PRIME)\n", ORACLE),
    Mutant("reflect_point: factor 2 dropped", "src/conic_butterfly/reflection.py",
           "k.mul(s, k.add(ky, ky))", "k.mul(s, ky)", ("tests/test_reflection.py",)),
    Mutant("reflect_line: factor 2 dropped", "src/conic_butterfly/reflection.py",
           "k.add(pl, pl), self.axis.raw", "pl, self.axis.raw", ("tests/test_reflection.py",)),
    Mutant("chord partner: doubling dropped", "src/conic_butterfly/conics.py",
           "        u0, u1 = k.add(u0, u0), k.add(u1, u1)\n", "", ORACLE),
    # a second point on a line may need the third coordinate vector
    Mutant("second point on a line: two candidates", "src/conic_butterfly/conics.py",
           "    for e in k.units:\n", "    for e in k.units[:2]:\n", ("tests/test_conics.py",)),
    # a prime literal past the interpreter's digit limit is a parse error
    Mutant("residue literal past the digit limit: except never matches", SCALARS,
           "            n = int(t) % _PRIME\n        except ValueError:",
           "            n = int(t) % _PRIME\n        except TypeError:",
           ("tests/test_scalars.py",)),
    # a parsed point or line keeps its text only when it is what str prints:
    # the texts the kernel parse prints for the literals' values, set in the
    # layout, equal the text and lead with 1; only then is its raw vector kept
    # without reduce_content.  A pin lends its text only to a witness it
    # equals, and a HOLDS report only to the witness it makes equal to that one
    Mutant("gauss literal: not compared with the printer", SCALARS,
           "return raw, [_gauss_text(*q) for q in parts]",
           "return raw, [t.strip() for t in literals]", PARSED_TEXT),
    Mutant("residue: not compared with the printer", SCALARS,
           "return raw, tuple(map(str, raw))", "return raw, tuple(t.strip() for t in literals)",
           PARSED_TEXT),
    Mutant("layout: not compared with the printer's", PROJECTIVE,
           "if _LAYOUT.format(*texts) == t and ",
           "if [x.strip() for x in parts] == list(texts) and ", PARSED_TEXT),
    Mutant("lead: not 1", PROJECTIVE,
           'next((x for x in texts if x != "0"), "0") == "1":',
           'next((x for x in texts if x != "0"), "0") != "0":', PARSED_TEXT),
    Mutant("kept path: without the lead test", PROJECTIVE,
           "            return obj\n        return cls(raw, k)\n",
           "            return obj\n        if _LAYOUT.format(*texts) == t and any(x != \"0\" for x in texts):\n"
           "            obj = _raw_new(cls)\n            obj.raw, obj.kernels = raw, k\n"
           "            return obj\n        return cls(raw, k)\n", PARSED_TEXT),
    # each statement's ValueError becomes a ScenarioParseError naming its line
    Mutant("parse boundary: line number dropped", SCENARIO_IO,
           "raise ScenarioParseError(str(exc), lineno) from exc",
           "raise ScenarioParseError(str(exc)) from exc", ("tests/test_scenario_io.py",)),
    Mutant("parse boundary: catches only ScenarioParseError", SCENARIO_IO,
           "        except ValueError as exc:  # ScenarioParseError,",
           "        except ScenarioParseError as exc:  # ScenarioParseError,", ("tests/test_scenario_io.py",)),
    Mutant("conic symmetric line: two entries swapped", SCENARIO_IO,
           "return m11 + m12 + m13 + m12 + m22 + m23 + m13 + m23 + m33",
           "return m11 + m13 + m12 + m12 + m22 + m23 + m13 + m23 + m33",
           ("tests/test_scenario_io.py",)),
    Mutant("run_document: a pin lends its text when it disagrees", SCENARIO_IO,
           'if agree and hasattr(e.value, "_text"):', 'if hasattr(e.value, "_text"):',
           ("tests/test_golden.py",)),
    Mutant("run_document: a report that is not HOLDS lends", SCENARIO_IO,
           "    if reports[0].holds():\n        for name, twin in",
           "    if True:\n        for name, twin in", ("tests/test_scenario_io.py",)),
    Mutant("butterfly claims: reflect(d1) lends from d1", SCENARIO_IO,
           'equal=((f"reflect({d1})", d2),)', 'equal=((f"reflect({d1})", d1),)',
           ("tests/test_scenario_io.py",)),
    # each checker rejects inputs outside its lemma's hypotheses
    Mutant("mono: y' off l passes", CHECKS, "        if not incident(w, l):\n", "        if False:\n",
           CHECK_TESTS),
    Mutant("mono: tangent l passes", CHECKS, "    if y == y_prime:\n        raise",
           "    if False:\n        raise", CHECK_TESTS),
    Mutant("mono: m off l passes", CHECKS, "    if not incident(m, l):\n", "    if False:\n",
           CHECK_TESTS),
    Mutant("jap: y at the pole passes", CHECKS, "    if y == frame.pole:\n", "    if False:\n",
           CHECK_TESTS),
    Mutant("jap: l2 off the pole passes", CHECKS, "    if not incident(frame.pole, l2):\n",
           "    if False:\n", CHECK_TESTS),
    Mutant("jap: l2 = py passes", CHECKS, "    if l2 == join(frame.pole, y):\n", "    if False:\n",
           CHECK_TESTS),
    Mutant("nut: y = z passes", CHECKS, "    if y == z:\n", "    if False:\n", CHECK_TESTS),
    Mutant("sack: r or s off the conic passes", CHECKS, "    for w in (r, s):\n", "    for w in ():\n",
           CHECK_TESTS),
    # the jap generator rejects each collapse as it draws, with its own reason
    Mutant("jap draw: y at the pole passes", SCENARIOS, "        if y == frame.pole:\n",
           "        if False:\n", SCENARIO_TESTS),
    Mutant("jap draw: yu through the pole passes", SCENARIOS,
           "        if incident(frame.pole, join(y, u)):\n", "        if False:\n", SCENARIO_TESTS),
    Mutant("jap draw: w at the pole passes", SCENARIOS, "        if w == frame.pole:\n",
           "        if False:\n", SCENARIO_TESTS),
    # render needs a conic point to sweep the conic from
    Mutant("render: no conic point and no base passes", "src/conic_butterfly/render.py",
           '    raise ProjectiveError(\n        "no labeled point lies on the conic; declare a base point'
           ' to render this document")\n', "", ("tests/test_golden.py",)),
    # one sign flip in each coordinate-vector branch of the prime chart:
    # l0 = b x e_k at the tangent's lead k, then d1, d0 at the base's lead j
    Mutant("prime chart: l0 at e0", SCALARS,
           "l00, l01, l02 = 0, b2, -b1 % _PRIME", "l00, l01, l02 = 0, b2, b1", ORACLE),
    Mutant("prime chart: l0 at e1", SCALARS,
           "l00, l01, l02 = -b2 % _PRIME, 0, b0", "l00, l01, l02 = b2, 0, b0", ORACLE),
    Mutant("prime chart: l0 at e2", SCALARS,
           "l00, l01, l02 = b1, -b0 % _PRIME, 0", "l00, l01, l02 = b1, b0, 0", ORACLE),
    Mutant("prime chart: d1 at e0", SCALARS,
           "= 0, l12, -l11 % _PRIME, 0, l02, -l01 % _PRIME", "= 0, l12, l11, 0, l02, -l01 % _PRIME", ORACLE),
    Mutant("prime chart: d0 at e1", SCALARS,
           "= -l12 % _PRIME, 0, l10, -l02 % _PRIME, 0, l00", "= -l12 % _PRIME, 0, l10, l02, 0, l00", ORACLE),
    Mutant("prime chart: d1 at e2", SCALARS,
           "= l11, -l10 % _PRIME, 0, l01, -l00 % _PRIME, 0", "= l11, l10, 0, l01, -l00 % _PRIME, 0", ORACLE),
    # the same six branches of the Gaussian chart
    Mutant("gauss chart: l0 at e0", SCALARS,
           "l0 = (0, 0, b2, c2, -b1, -c1)", "l0 = (0, 0, b2, c2, b1, c1)", ORACLE),
    Mutant("gauss chart: l0 at e1", SCALARS,
           "l0 = (-b2, -c2, 0, 0, b0, c0)", "l0 = (b2, c2, 0, 0, b0, c0)", ORACLE),
    Mutant("gauss chart: l0 at e2", SCALARS,
           "l0 = (b1, c1, -b0, -c0, 0, 0)", "l0 = (b1, c1, b0, c0, 0, 0)", ORACLE),
    Mutant("gauss chart: d0 at e0", SCALARS,
           "(0, 0, l02, k02, -l01, -k01)", "(0, 0, l02, k02, l01, k01)", ORACLE),
    Mutant("gauss chart: d1 at e1", SCALARS,
           "d1, d0 = (-l12, -k12, 0, 0, l10, k10)", "d1, d0 = (l12, k12, 0, 0, l10, k10)", ORACLE),
    Mutant("gauss chart: d0 at e2", SCALARS,
           "(l01, k01, -l00, -k00, 0, 0)", "(l01, k01, l00, k00, 0, 0)", ORACLE),
    # one dropped term of each backend's reference image
    Mutant("prime reference image: n01 without -c01*c11", SCALARS,
           "n01 = ((x0 * y2 + x2 * y0) * _HALF - x1 * y1) % _PRIME",
           "n01 = ((x0 * y2 + x2 * y0) * _HALF) % _PRIME", ORACLE),
    Mutant("gauss reference image: real part without -2*u1*v1", SCALARS,
           "p0 * r2 - q0 * s2 + p2 * r0 - q2 * s0 - 2 * (p1 * r1 - q1 * s1),",
           "p0 * r2 - q0 * s2 + p2 * r0 - q2 * s0,", ORACLE),
)


def apply(tree: Path, mutant: Mutant) -> bool:
    """Apply the mutant to the copy at `tree`; False when its old text does
    not occur exactly once."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' or 'error' (pytest neither passed nor
    reported a failure)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        if not apply(tree, mutant):
            return "stale"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-profile=mutants", *mutant.tests]
        try:
            status = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "error"
    return {0: "survived", 1: "killed"}.get(status, "error")


def main(labels) -> int:
    chosen = [m for m in CATALOGUE if not labels or m.label in labels]
    unknown = set(labels) - {m.label for m in CATALOGUE}
    if unknown:
        print(f"unknown labels: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{outcome:8} {time.perf_counter() - start:6.1f}s  {mutant.label}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
