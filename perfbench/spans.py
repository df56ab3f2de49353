"""Spans recorded by wrappers around the package's functions and constructors.

The wrappers live only in the benchmark: installing them rebinds the target
in its defining module and in every module that imported the name (``from
.projective import join`` binds ``join`` in ``checks``, ``scenarios`` and
others), and removing them puts the originals back.  Scalar dunders are
never wrapped; ``kernels`` times them directly.

Spans are kept in flat arrays (name, op, parent, start, end) and written out
when the run ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "conic_butterfly"

# label -> targets; a target is (module, attribute) or (module, "Class.method")
GENERATE = ("random_mono_inputs", "random_jap_inputs", "random_nut_inputs",
            "random_sack_inputs", "random_hexagon", "random_scenario")
CHECK = ("lemma_mono_check", "lemma_jap_check", "lemma_nut_check", "lemma_sack_check",
         "pascal_check", "theorem_damn_check", "theorem_cutl_check")
SPLIT_TARGETS = {
    "scenarios.generate": [("scenarios", f) for f in GENERATE],
    "checks.check": [("checks", f) for f in CHECK],
}
LAYER_TARGETS = {
    "reflection.reflect_point": [("reflection", "ReflectionFrame.reflect_point")],
    "conics.second_intersection": [("conics", "second_intersection")],
    "conics.ConicParametrization.point": [("conics", "ConicParametrization.point")],
    "conics.transform_conic": [("conics", "transform_conic")],
    "conics.Conic": [("conics", "Conic.__init__")],
    "projective.join": [("projective", "join")],
    "projective.meet": [("projective", "meet")],
    "projective.cross_ratio": [("projective", "cross_ratio")],
    "projective.harmonic_conjugate": [("projective", "harmonic_conjugate")],
    "projective.ProjPoint": [("projective", "ProjPoint.__init__")],
    "projective.ProjLine": [("projective", "ProjLine.__init__")],
    "scenario_io.parse_scenario": [("scenario_io", "parse_scenario")],
    "scenario_io.run_document": [("scenario_io", "run_document")],
    "scenario_io.serialize_scenario": [("scenario_io", "serialize_scenario")],
    "reports.CheckReport.to_text": [("reports", "CheckReport.to_text")],
}
FULL_TARGETS = {**SPLIT_TARGETS, **LAYER_TARGETS}
OP = "op"


class NullTracer:
    """Tracing off: the op hooks cost one call each and record nothing."""

    def begin_op(self):
        return None

    def end_op(self, span, claim):
        pass

    def full(self) -> bool:
        return False


class Tracer:
    def __init__(self, targets: dict, capacity: int = 500_000):
        self.targets = targets
        self.capacity = capacity
        self.labels = [OP, *targets]
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.op_claims = []  # claim per op id; None for a stream step that was no op
        self._undo = []

    # -- recording ------------------------------------------------------
    def open(self, label_id: int) -> int:
        idx = len(self.start)
        self.name.append(label_id)
        self.op.append(self.op_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self) -> int:
        self.op_id = len(self.op_claims)
        self.op_claims.append(None)
        return self.open(0)

    def end_op(self, span: int, claim) -> None:
        self.close(span)
        self.op_claims[self.op_id] = claim
        self.op_id = -1

    def full(self) -> bool:
        return len(self.start) >= self.capacity

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, label_id: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(label_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for label_id, targets in enumerate(self.targets.values(), 1):
            for module, attr in targets:
                owner = sys.modules[f"{PACKAGE}.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    own = cls.__dict__.get(method)
                    setattr(cls, method, self._wrap(getattr(cls, method), label_id))
                    self._undo.append((cls, method, own))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(original, label_id)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()
        return False

    # -- results ----------------------------------------------------------
    def _durations(self):
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, child

    def ops(self) -> int:
        return sum(c is not None for c in self.op_claims)

    def layer_metrics(self) -> dict:
        """calls_per_op and self_share over timed ops; us_per_call over every
        traced call of the label, set-up included."""
        dur, child = self._durations()
        k = len(self.labels)
        calls = [0] * k
        calls_all = [0] * k
        time_all = [0.0] * k
        self_time = [0.0] * k
        claims = self.op_claims
        op_time = 0.0
        for i in range(len(dur)):
            label = self.name[i]
            calls_all[label] += 1
            time_all[label] += dur[i]
            op = self.op[i]
            if op >= 0 and claims[op] is not None:
                calls[label] += 1
                self_time[label] += dur[i] - child[i]
                if label == 0:
                    op_time += dur[i]
        ops = max(self.ops(), 1)
        out = {}
        for label_id, label in enumerate(self.labels):
            if label not in LAYER_TARGETS:
                continue
            out[f"{label}.calls_per_op"] = calls[label_id] / ops
            out[f"{label}.us_per_call"] = (time_all[label_id] / calls_all[label_id] * 1e6
                                           if calls_all[label_id] else 0.0)
            out[f"{label}.self_share"] = self_time[label_id] / op_time if op_time else 0.0
        return out

    def split_ms(self, label: str) -> dict:
        """Mean ms per op, by claim, of the label's spans directly under an op."""
        label_id = self.labels.index(label)
        count = Counter(c for c in self.op_claims if c is not None)
        total = Counter()
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == label_id and p >= 0 and self.name[p] == 0:
                claim = self.op_claims[self.op[i]]
                if claim is not None:
                    total[claim] += self.end[i] - self.start[i]
        return {c: total[c] / n * 1e3 for c, n in count.items()}

    def op_seconds(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.name[i] == 0 and self.op_claims[self.op[i]] is not None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{self.labels[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
