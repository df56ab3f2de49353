"""The three workloads: their inputs, one repetition of their ops, and the
checks on what the program printed.

A repetition is a fixed set of ops drawn from the seed, so its output
stream has one sha256 that must repeat byte for byte in every repetition of
a run.  Ops run one after another in one process (a closed loop, one
client, ``jobs=1``).
"""

from __future__ import annotations

import hashlib
import traceback
from array import array
from pathlib import Path
from random import Random

import conic_butterfly as cb
from conic_butterfly import fuzz, scenario_io

CAMPAIGN_HEIGHT = 50
DOCUMENT_HEIGHT = 10


def draw_cell(seed: int, index: int, claim: str, field, height: int):
    """(report, document, retries) of one campaign cell, drawn by the
    campaign's own per-claim runner so it matches ``run_campaign`` exactly."""
    budget = cb.RetryBudget()
    report, make_doc = fuzz._RUNNERS[claim](
        Random(f"{seed}:{index}:{claim}"), field, height, budget, index)
    return report, make_doc(), budget.spent


class Rep:
    """What one repetition did: per-op wall times, failures, digest."""

    __slots__ = ("op_seconds", "failed", "digest", "retries", "wall")

    def __init__(self):
        self.op_seconds = array("d")
        self.failed = 0
        self.digest = ""
        self.retries = 0
        self.wall = 0.0


class CampaignWorkload:
    """``run_campaign`` over a fixed grid; one op is one cell."""

    skipped = 0

    def __init__(self, backend: str, checks: tuple, count: int, seed: int):
        self.backend = backend
        self.seed = seed
        self.config = cb.CampaignConfig(seed, count, backend=backend,
                                        height=CAMPAIGN_HEIGHT, checks=checks)
        self.cells = [(index, claim) for index in range(count) for claim in self.config.checks]
        self.claims = [claim for _, claim in self.cells]
        self.ops_per_rep = len(self.cells)

    def run_rep(self, tracer, clock) -> Rep:
        rep = Rep()
        digest = hashlib.sha256()
        expected = iter(f"cell {i} {c} HOLDS" for i, c in self.cells)
        stream = cb.run_campaign(self.config)
        header = next(stream)
        digest.update(header.encode() + b"\n")
        good = 0
        summary = None
        while True:
            span = tracer.begin_op()
            t0 = clock()
            try:
                line = next(stream, None)
            except Exception:  # a raising cell ends the stream; its cells count as failed
                traceback.print_exc()
                line = None
            t1 = clock()
            if line is None:
                tracer.end_op(span, None)
                break
            digest.update(line.encode() + b"\n")
            if not line.startswith("cell "):
                tracer.end_op(span, None)
                summary = line if line.startswith("summary ") else summary
                continue
            claim = line.split()[2]
            tracer.end_op(span, claim)
            rep.op_seconds.append(t1 - t0)
            if line == next(expected, None):
                good += 1
        rep.digest = digest.hexdigest()
        rep.failed = self.ops_per_rep - good
        stats = _summary_fields(summary)
        n = self.ops_per_rep
        if (header != self.config.header()
                or stats.get("cells") != n or stats.get("holds") != n):
            rep.failed = n
        rep.retries = stats.get("retries", 0)
        return rep

    def retries_per_cell(self, reps) -> float:
        return reps[0].retries / self.ops_per_rep

    def witness_cells(self):
        """(claim, report, document) for every cell of a repetition."""
        field = cb.get_backend(self.backend)
        for index, claim in self.cells:
            report, doc, _ = draw_cell(self.seed, index, claim, field, CAMPAIGN_HEIGHT)
            yield claim, report, doc

    def other_backend_cells(self, indices: int = 2):
        """A few cells of the same grid drawn on the other backend, so kernel
        timings have operands of this workload's height for both backends."""
        other = "prime" if self.backend == "gauss" else "gauss"
        field = cb.get_backend(other)
        checks = [c for c in self.config.checks if other == "gauss" or c != "cutl"]
        for index in range(indices):
            for claim in checks:
                report, doc, _ = draw_cell(self.seed, index, claim, field, CAMPAIGN_HEIGHT)
                yield claim, report, doc


def _summary_fields(line) -> dict:
    if not line:
        return {}
    fields = {}
    for token in line.split()[1:]:
        key, _, value = token.partition("=")
        if value.isdigit():
            fields[key] = int(value)
    return fields


def pinned_expects(report) -> list:
    """An ``expect`` for every witness whose name and kind the grammar accepts."""
    pins = []
    for name, obj in report.witnesses:
        kind, _ = cb.reports.format_value(obj)
        if scenario_io._NAME_RE.fullmatch(name) and kind in scenario_io._EXPECT_KINDS:
            pins.append(cb.Expect(kind, name, obj))
    return pins


def fixture_texts() -> list:
    folder = Path(cb.__file__).parent / "fixtures"
    return [p.read_text(encoding="utf-8") for p in sorted(folder.glob("*.scn"))]


class DocumentWorkload:
    """The ``butterfly verify`` path in-process; one op is one document."""

    backend = "gauss"

    def __init__(self, per_claim: int, seed: int):
        self.seed = seed
        self.docs = []  # (claim, text, main report text the replay must reproduce)
        self.setup_retries = 0
        self.setup_cells = 0
        # Only cells that HOLD become documents; a DEGENERATE draw (rare at
        # height 10) is skipped and counted, and the next index is drawn.
        self.skipped = 0
        for claim in cb.CLAIM_ORDER:
            held = index = 0
            while held < per_claim:
                if index >= 2 * per_claim + 10:
                    raise RuntimeError(f"{claim}: too few HOLDS cells for seed {seed}")
                report, doc, retries = draw_cell(seed, index, claim, cb.GaussianRational,
                                                 DOCUMENT_HEIGHT)
                index += 1
                self.setup_retries += retries
                self.setup_cells += 1
                if not report.holds():
                    self.skipped += 1
                    continue
                held += 1
                doc.expects.extend(pinned_expects(report))
                self.docs.append((claim, cb.serialize_scenario(doc), report.to_text()))
        for text in fixture_texts():
            self.docs.append((cb.parse_scenario(text).check, text, None))
        self.claims = [claim for claim, _, _ in self.docs]
        self.ops_per_rep = len(self.docs)

    def run_rep(self, tracer, clock) -> Rep:
        rep = Rep()
        digest = hashlib.sha256()
        for claim, text, want in self.docs:
            span = tracer.begin_op()
            t0 = clock()
            try:
                reports = cb.run_document(cb.parse_scenario(text))
                texts = [r.to_text() for r in reports]
            except Exception:  # counts as a failed op
                traceback.print_exc()
                reports, texts = [], ["error"]
            t1 = clock()
            tracer.end_op(span, claim)
            rep.op_seconds.append(t1 - t0)
            out = "\n".join(texts) + "\n"
            digest.update(out.encode())
            ok = (len(reports) == 2 and all(r.holds() for r in reports)
                  and (want is None or texts[0] == want))
            rep.failed += not ok
        rep.digest = digest.hexdigest()
        return rep

    def retries_per_cell(self, reps) -> float:
        return self.setup_retries / self.setup_cells

    def witness_cells(self):
        for claim, text, _ in self.docs:
            doc = cb.parse_scenario(text)
            yield claim, cb.run_document(doc)[0], doc

    def other_backend_cells(self, indices: int = 2):
        for index in range(indices):
            for claim in cb.CLAIM_ORDER:
                if claim != "cutl":
                    report, doc, _ = draw_cell(self.seed, index, claim, cb.PrimeFieldElement,
                                               DOCUMENT_HEIGHT)
                    yield claim, report, doc


# name -> (factory(size, seed), default size: cells per claim of one repetition)
WORKLOADS = {
    "exact-butterfly": (
        lambda size, seed: CampaignWorkload("gauss", ("damn", "cutl"), size, seed),
        50),
    "modular-sweep": (
        lambda size, seed: CampaignWorkload(
            "prime", ("mono", "jap", "nut", "sack", "pascal", "damn"), size, seed),
        150),
    "document-replay": (DocumentWorkload, 15),
}


def make(name: str, seed: int, size=None):
    factory, default = WORKLOADS[name]
    return factory(default if size is None else size, seed)
