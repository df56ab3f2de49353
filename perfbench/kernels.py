"""Witness bit-heights and per-call timings of the scalar and ``_linalg`` kernels.

Kernel operands are sampled from the workload's own witnesses and conic
forms, so a Gaussian operand has the coordinate height the workload really
produces.  Timing the kernels directly gives their cost per call without
tracing the millions of scalar operations a run makes.
"""

from __future__ import annotations

import statistics
from random import Random
from time import perf_counter

import conic_butterfly as cb
from conic_butterfly import _linalg

SAMPLE = 400
PASSES = 7


def witness_scalars(obj) -> tuple:
    if isinstance(obj, (cb.ProjPoint, cb.ProjLine)):
        return obj.coords
    if isinstance(obj, cb.CrossRatioValue):
        return (obj.num, obj.den)
    if isinstance(obj, (cb.GaussianRational, cb.PrimeFieldElement)):
        return (obj,)
    return ()


def bit_height(x) -> int:
    if isinstance(x, cb.PrimeFieldElement):
        return x.residue.bit_length()
    return max(abs(x.re.numerator).bit_length(), x.re.denominator.bit_length(),
               abs(x.im.numerator).bit_length(), x.im.denominator.bit_length())


class Operands:
    """Scalars, coordinate vectors and conic forms of one backend."""

    def __init__(self):
        self.scalars = []
        self.vectors = []
        self.forms = []

    def add(self, report, doc) -> None:
        for _, obj in report.witnesses:
            self.scalars.extend(witness_scalars(obj))
            if isinstance(obj, (cb.ProjPoint, cb.ProjLine)):
                self.vectors.append(obj.coords)
        self.forms.append(doc.conic.form)


def _per_call_us(loop, *args) -> float:
    """Median over passes of one timed pass, minus the same loop doing
    nothing, per pair of operands (always the last argument)."""
    pairs = args[-1]
    samples = []
    for _ in range(PASSES):
        t0 = perf_counter()
        loop(*args)
        t1 = perf_counter()
        _empty(pairs)
        t2 = perf_counter()
        samples.append((t1 - t0) - (t2 - t1))
    return max(statistics.median(samples), 0.0) / len(pairs) * 1e6


def _empty(pairs):
    for _x, _y in pairs:
        pass


def _add(pairs):
    for x, y in pairs:
        x + y


def _mul(pairs):
    for x, y in pairs:
        x * y


def _inv(pairs):
    for x, _y in pairs:
        x.inv()


def _apply(fn, pairs):
    for x, y in pairs:
        fn(x, y)


def kernel_timings(backend: str, ops: Operands, seed: int) -> dict:
    rng = Random(f"{seed}:kernels:{backend}")

    def pairs(pool):
        return [(rng.choice(pool), rng.choice(pool)) for _ in range(SAMPLE)]

    nonzero = [x for x in ops.scalars if not x.is_zero()]
    scalar_pairs = pairs(nonzero)
    vector_pairs = pairs(ops.vectors)
    form_pairs = [(rng.choice(ops.forms), v) for v, _ in vector_pairs]
    return {
        f"scalars.{backend}.add_us": _per_call_us(_add, scalar_pairs),
        f"scalars.{backend}.mul_us": _per_call_us(_mul, scalar_pairs),
        f"scalars.{backend}.inv_us": _per_call_us(_inv, scalar_pairs),
        f"linalg.{backend}.cross_us": _per_call_us(_apply, _linalg.cross, vector_pairs),
        f"linalg.{backend}.dot_us": _per_call_us(_apply, _linalg.dot, vector_pairs),
        f"linalg.{backend}.matvec_us": _per_call_us(_apply, _linalg.matvec, form_pairs),
    }
