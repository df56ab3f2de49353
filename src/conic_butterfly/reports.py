"""Check verdicts and their machine-readable text form.

A report is one block:

    report <claim>
    verdict <HOLDS|VIOLATED|DEGENERATE>
    [reason <text>]
    [witness <name> <kind> <value>]...
    [residual <value>]
    [replay: indented scenario document]
    end

Verdicts are three-valued on purpose: the theorems assume generic
position, and randomized inputs will land on the exceptional sets, so the
checkers classify those draws instead of failing on them.  VIOLATED always
carries an exact nonzero residual.
"""

from __future__ import annotations

import enum
from typing import Sequence, Tuple

from .projective import CrossRatioValue, ProjLine, ProjPoint


class Verdict(enum.Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    DEGENERATE = "DEGENERATE"

    def __str__(self):
        return self.value


def value_kind(obj) -> str:
    """The kind of a report value, one of the four an expect pin can name."""
    if isinstance(obj, ProjPoint):
        return "point"
    if isinstance(obj, ProjLine):
        return "line"
    if isinstance(obj, CrossRatioValue):
        return "ratio"
    return "scalar"


def format_value(obj) -> Tuple[str, str]:
    """(kind, text) of a report value."""
    return value_kind(obj), str(obj)


class CheckReport:
    """Outcome of one check: verdict plus every intermediate named value."""

    __slots__ = ("claim", "verdict", "witnesses", "residual", "reason", "replay")

    def __init__(self, claim: str, verdict: Verdict,
                 witnesses: Sequence[tuple] = (), residual=None,
                 reason: str = ""):
        self.claim = claim
        self.verdict = verdict
        self.witnesses = tuple(witnesses)
        self.residual = residual
        self.reason = reason
        self.replay = None  # a campaign sets the scenario document of a VIOLATED cell
        if verdict is Verdict.VIOLATED and residual is None:
            raise ValueError("a VIOLATED report must carry its residual")

    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS

    def witness(self, name: str):
        for key, obj in self.witnesses:
            if key == name:
                return obj
        raise KeyError(f"report has no witness {name!r}")

    def to_text(self) -> str:
        lines = [f"report {self.claim}", f"verdict {self.verdict}"]
        if self.reason:
            lines.append(f"reason {self.reason}")
        for name, obj in self.witnesses:
            kind, text = format_value(obj)
            lines.append(f"witness {name} {kind} {text}")
        if self.residual is not None:
            _, text = format_value(self.residual)
            lines.append(f"residual {text}")
        if self.replay is not None:
            lines.append("replay")
            lines.extend("  " + l for l in self.replay.splitlines())
            lines.append("end replay")
        lines.append("end")
        return "\n".join(lines)

    def __repr__(self):
        return f"CheckReport({self.claim}, {self.verdict})"


def degenerate(claim: str, reason: str, witnesses: Sequence[tuple] = ()) -> CheckReport:
    return CheckReport(claim, Verdict.DEGENERATE, witnesses, reason=reason)


def exit_status(reports) -> int:
    """0 when everything HOLDS, 1 on any VIOLATED, 2 when nothing better
    than DEGENERATE was reached (or nothing ran at all)."""
    reports = list(reports)
    if any(r.verdict is Verdict.VIOLATED for r in reports):
        return 1
    if reports and all(r.verdict is Verdict.HOLDS for r in reports):
        return 0
    return 2
