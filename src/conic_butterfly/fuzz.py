"""Seeded check campaigns with a deterministic, replayable report stream.

A campaign is a grid: scenario indices 0..count-1, and within each index
every requested claim in canonical order.  Each cell draws its randomness
from ``Random(f"{seed}:{index}:{claim}")``, so a cell's outcome depends on
the config alone, never on scheduling; worker processes only change who
evaluates a cell, not what it prints.  The first VIOLATED cell aborts the
campaign and carries a complete scenario document for single-command
replay.
"""

from __future__ import annotations

import multiprocessing
from random import Random
from typing import Iterator, List, Optional, Tuple

from functools import partial

from .scalars import BACKENDS
from .reports import CLAIM_ORDER, CheckReport, Verdict
from .scenarios import (RetryBudget, RetryCapError, random_hexagon, random_jap_inputs,
                        random_mono_inputs, random_nut_inputs, random_sack_inputs,
                        random_scenario)
from .checks import (lemma_jap_check, lemma_mono_check, lemma_nut_check, lemma_sack_check,
                     pascal_check, theorem_cutl_check, theorem_damn_check)
from .scenario_io import (butterfly_document, frame_document, hexagon_document,
                          planar_document, serialize_scenario)

__all__ = ["CampaignConfig", "CampaignCounts", "run_campaign"]


class CampaignConfig:
    """Everything that identifies a campaign; two equal configs must print
    byte-identical streams."""

    __slots__ = ("seed", "count", "backend", "height", "checks")

    def __init__(self, seed: int, count: int, backend: str = "gauss",
                 height: int = 10, checks=CLAIM_ORDER):
        if not isinstance(seed, int) or not (-(1 << 63) <= seed < (1 << 64)):
            raise ValueError("seed must be a 64-bit integer")
        if count <= 0:
            raise ValueError("count must be positive")
        if height <= 0:
            raise ValueError("height must be positive")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        bad = sorted(set(checks) - set(CLAIM_ORDER))
        if bad:
            raise ValueError(f"unknown checks: {', '.join(bad)}")
        if not checks:
            raise ValueError("at least one check is required")
        if backend != "gauss" and "cutl" in checks:
            raise ValueError("cutl draws real planar scenarios; it needs the gauss backend")
        self.seed = seed
        self.count = count
        self.backend = backend
        self.height = height
        self.checks = tuple(c for c in CLAIM_ORDER if c in set(checks))

    def header(self) -> str:
        return (f"campaign seed={self.seed} count={self.count} "
                f"backend={self.backend} height={self.height} "
                f"checks={','.join(self.checks)}")


class CampaignCounts:
    __slots__ = ("cells", "holds", "degenerate", "violated", "retry_exhausted", "retries")

    def __init__(self):
        self.cells = 0
        self.holds = 0
        self.degenerate = 0
        self.violated = 0
        self.retry_exhausted = 0
        self.retries = 0

    def line(self) -> str:
        return (f"summary cells={self.cells} holds={self.holds} "
                f"degenerate={self.degenerate} violated={self.violated} "
                f"retry-exhausted={self.retry_exhausted} retries={self.retries}")

    def exit_status(self) -> int:
        if self.violated:
            return 1
        return 0 if self.holds else 2


def _mono_cell(rng: Random, field, height: int, budget: RetryBudget, index: int):
    frame, l, y, y_prime, m = random_mono_inputs(
        rng, field, height, converse=bool(index % 2), budget=budget)
    report = lemma_mono_check(frame, l, y, y_prime, m)
    doc = partial(frame_document, "mono", frame, {"y": y, "y'": y_prime, "m": m},
                  {"k": frame.axis, "l": l})
    return report, doc


def _jap_cell(rng: Random, field, height: int, budget: RetryBudget, index: int):
    frame, y, u, l2 = random_jap_inputs(rng, field, height, budget=budget)
    report = lemma_jap_check(frame, y, u, l2)
    doc = partial(frame_document, "jap", frame, {"y": y, "u": u},
                  {"k": frame.axis, "l2": l2})
    return report, doc


def _nut_cell(rng: Random, field, height: int, budget: RetryBudget, index: int):
    frame, y, z = random_nut_inputs(rng, field, height, budget=budget)
    report = lemma_nut_check(frame, y, z)
    doc = partial(frame_document, "nut", frame, {"y": y, "z": z}, {"k": frame.axis})
    return report, doc


def _sack_cell(rng: Random, field, height: int, budget: RetryBudget, index: int):
    frame, m, r, s = random_sack_inputs(rng, field, height, budget=budget)
    report = lemma_sack_check(frame, m, r, s)
    doc = partial(frame_document, "sack", frame, {"m": m, "r": r, "s": s}, {})
    return report, doc


def _pascal_cell(rng: Random, field, height: int, budget: RetryBudget, index: int):
    conic, hexagon = random_hexagon(rng, field, height, budget=budget)
    report = pascal_check(conic, hexagon)
    doc = partial(hexagon_document, conic, hexagon)
    return report, doc


def _damn_cell(rng: Random, field, height: int, budget: RetryBudget, index: int):
    scenario = random_scenario(rng, field, height, kind="damn", budget=budget)
    report = theorem_damn_check(scenario)
    doc = partial(butterfly_document, scenario)
    return report, doc


def _cutl_cell(rng: Random, field, height: int, budget: RetryBudget, index: int):
    scenario = random_scenario(rng, field, height, kind="cutl", budget=budget)
    report = theorem_cutl_check(scenario)
    doc = partial(planar_document, scenario)
    return report, doc


_RUNNERS = {
    "mono": _mono_cell,
    "jap": _jap_cell,
    "nut": _nut_cell,
    "sack": _sack_cell,
    "pascal": _pascal_cell,
    "damn": _damn_cell,
    "cutl": _cutl_cell,
}


def _evaluate_cell(task: Tuple[int, int, str, str, int]) -> Tuple[List[str], str, int]:
    """One grid cell -> (output lines, verdict token, retries spent).

    Must stay a plain module-level function on plain data so worker
    processes can receive tasks and return results by pickling.
    """
    seed, index, claim, backend, height = task
    field = BACKENDS[backend]
    rng = Random(f"{seed}:{index}:{claim}")
    budget = RetryBudget()
    try:
        report, make_doc = _RUNNERS[claim](rng, field, height, budget, index)
    except RetryCapError as exc:
        return ([f"cell {index} {claim} RETRY-EXHAUSTED {exc}"], "RETRY-EXHAUSTED", budget.spent)
    head = f"cell {index} {claim} {report.verdict}"
    if report.verdict is Verdict.DEGENERATE and report.reason:
        head += f" {report.reason}"
    lines = [head]
    if report.verdict is Verdict.VIOLATED:
        replayed = CheckReport(report.claim, report.verdict, report.witnesses,
                               residual=report.residual, reason=report.reason,
                               replay=serialize_scenario(make_doc()))
        lines.extend(replayed.to_text().splitlines())
    return (lines, str(report.verdict), budget.spent)


def _tally(counts: CampaignCounts, verdict: str, retries: int) -> None:
    counts.cells += 1
    counts.retries += retries
    if verdict == "HOLDS":
        counts.holds += 1
    elif verdict == "DEGENERATE":
        counts.degenerate += 1
    elif verdict == "VIOLATED":
        counts.violated += 1
    else:
        counts.retry_exhausted += 1


def run_campaign(config: CampaignConfig, jobs: int = 1,
                 counts: Optional[CampaignCounts] = None) -> Iterator[str]:
    """Yield the campaign's report stream line by line.

    The stream is a pure function of the config: a header, one line per
    cell in (index, claim) order, a full report block after a VIOLATED
    cell, and a closing summary.  ``jobs`` buys wall-clock time only; the
    bytes cannot change with it.  The first VIOLATED cell ends the
    campaign early.  A bad ``jobs`` raises here, before any line is made.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return _stream(config, jobs, counts if counts is not None else CampaignCounts())


def _stream(config: CampaignConfig, jobs: int, counts: CampaignCounts) -> Iterator[str]:
    tasks = [(config.seed, index, claim, config.backend, config.height)
             for index in range(config.count)
             for claim in config.checks]
    yield config.header()

    if jobs == 1:
        results = map(_evaluate_cell, tasks)
        for lines, verdict, retries in results:
            yield from lines
            _tally(counts, verdict, retries)
            if verdict == "VIOLATED":
                break
        yield counts.line()
        return

    with multiprocessing.Pool(processes=jobs) as pool:
        for lines, verdict, retries in pool.imap(_evaluate_cell, tasks, chunksize=16):
            yield from lines
            _tally(counts, verdict, retries)
            if verdict == "VIOLATED":
                pool.terminate()
                break
    yield counts.line()
