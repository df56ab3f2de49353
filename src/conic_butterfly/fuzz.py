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
from contextlib import nullcontext
from random import Random
from typing import Iterator, List, Optional, Tuple

from .scalars import BACKENDS
from .reports import Verdict
from .scenarios import RetryBudget, RetryCapError
from .scenario_io import CLAIM_ORDER, CLAIMS, serialize_scenario

__all__ = ["CampaignConfig", "CampaignCounts", "run_campaign"]


class CampaignConfig:
    """Everything that identifies a campaign; two equal configs must print
    byte-identical streams.  With no `checks`, every claim the backend runs."""

    __slots__ = ("seed", "count", "backend", "height", "checks")

    def __init__(self, seed: int, count: int, backend: str = "gauss",
                 height: int = 10, checks=None):
        if not isinstance(seed, int) or not (-(1 << 63) <= seed < (1 << 64)):
            raise ValueError("seed must be a 64-bit integer")
        if count <= 0:
            raise ValueError("count must be positive")
        if height <= 0:
            raise ValueError("height must be positive")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if checks is None:
            checks = [c for c in CLAIM_ORDER if backend == "gauss" or not CLAIMS[c].real]
        bad = sorted(set(checks) - set(CLAIM_ORDER))
        if bad:
            raise ValueError(f"unknown checks: {', '.join(bad)}")
        if not checks:
            raise ValueError("at least one check is required")
        picked = tuple(c for c in CLAIM_ORDER if c in set(checks))
        real = [c for c in picked if CLAIMS[c].real]
        if backend != "gauss" and real:
            raise ValueError(f"{real[0]} draws real planar scenarios; it needs the gauss backend")
        self.seed = seed
        self.count = count
        self.backend = backend
        self.height = height
        self.checks = picked

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


# claim -> f(rng, field, height, budget, index) -> (report, make_doc); looked
# up per cell, so a replaced entry takes effect at once
_RUNNERS = {name: claim.cell for name, claim in CLAIMS.items()}


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
        report.replay = serialize_scenario(make_doc())
        lines.extend(report.to_text().splitlines())
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
    # Pool.__exit__ terminates the workers, also when the first VIOLATED ends the loop
    with (multiprocessing.Pool(processes=jobs) if jobs > 1 else nullcontext()) as pool:
        results = (pool.imap(_evaluate_cell, tasks, chunksize=16) if jobs > 1
                   else map(_evaluate_cell, tasks))
        for lines, verdict, retries in results:
            yield from lines
            _tally(counts, verdict, retries)
            if verdict == "VIOLATED":
                break
    yield counts.line()
