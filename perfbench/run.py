#!/usr/bin/env python3
"""Benchmark of the conic-butterfly checker.

    python3 perfbench/run.py --workload exact-butterfly --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the repository root.  The package is imported from ``src/`` (as the
test suite does with ``PYTHONPATH=src``), never from an installed copy.
Workloads are described in NOTES.md beside this file.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones; the last line of
stdout is always one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
NAMES = ("exact-butterfly", "modular-sweep", "document-replay")
UNITS = {"throughput_ops_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import conic_butterfly from this checkout's src/, or stop."""
    init = SRC / "conic_butterfly" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout that holds src/")
    sys.path.insert(0, str(SRC))
    import conic_butterfly
    if Path(conic_butterfly.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: conic_butterfly imported from {conic_butterfly.__file__}")


def machine_record() -> dict:
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "loadavg": read("/proc/loadavg").strip()}


def measure(workload, seconds: float, tracer):
    """Repeat the workload's fixed op set until ``seconds`` have passed (at
    least twice, so the output can be compared across repetitions).

    Returns the repetitions and each op's fastest time over them.  Other
    tenants of the machine only ever slow an op down, so the fastest repeat
    is the steadiest estimate of its cost.  Only the running minimum is
    kept, so memory does not grow with the number of repetitions.
    """
    reps, best = [], None
    start = time.perf_counter()
    while len(reps) < 2 or (time.perf_counter() - start < seconds and not tracer.full()):
        gc.collect()
        t0 = time.perf_counter()
        rep = workload.run_rep(tracer, time.perf_counter)
        rep.wall = time.perf_counter() - t0
        best = rep.op_seconds if best is None else array("d", map(min, best, rep.op_seconds))
        rep.op_seconds = None
        reps.append(rep)
    return reps, best


def golden_digest(name: str, seed: int, size) -> str:
    if seed != DEFAULT_SEED or size is not None:
        return ""
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)[name]


def count_failed(workload, reps: list, golden: str) -> int:
    """Failed ops: not HOLDS, raised, or in a repetition whose stream differs
    from the golden digest (default seed) or from the first repetition."""
    reference = golden or reps[0].digest
    return sum(workload.ops_per_rep if rep.digest != reference else rep.failed
               for rep in reps)


def throughput(best) -> float:
    return len(best) / sum(best)


def describe(workload, reps: list, operands=None) -> dict:
    """Exact descriptors of the inputs: they change only when the inputs do."""
    import kernels

    heights, mix, not_holds = [], Counter(), 0
    for claim, report, doc in workload.witness_cells():
        mix[claim] += 1
        not_holds += not report.holds()
        for _, obj in report.witnesses:
            heights.extend(kernels.bit_height(x) for x in kernels.witness_scalars(obj))
        if operands is not None:
            operands.add(report, doc)
    return {
        "ops_per_rep": workload.ops_per_rep,
        "reps": len(reps),
        "ops": workload.ops_per_rep * len(reps),
        "claim_mix": dict(mix),
        "retries_per_cell": workload.retries_per_cell(reps),
        "skipped_not_holds": workload.skipped,
        "witness_bits_p50": statistics.median_low(heights),
        "witness_bits_max": max(heights),
        "redrawn_not_holds": not_holds,
    }


def time_setup(args) -> float:
    """Median wall time of fresh processes that import the package and build
    the workload's inputs, from spawn to exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.size is not None:
        cmd += ["--size", str(args.size)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_plain(args):
    import spans
    import workloads

    setup_s = time_setup(args)
    workload = workloads.make(args.workload, args.seed, args.size)
    reps, best = measure(workload, args.seconds, spans.NullTracer())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "throughput_ops_s": throughput(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"op_samples": len(best), "reps": len(reps),
             "first_rep_throughput_ops_s": workload.ops_per_rep / reps[0].wall}
    return workload, reps, {k: (v, UNITS[k]) for k, v in metrics.items()}, extra, None


def _claim_means(claims: list, best) -> dict:
    total, count = Counter(), Counter()
    for claim, t in zip(claims, best):
        total[claim] += t
        count[claim] += 1
    return {c: total[c] / count[c] * 1e3 for c in count}


def run_trace(args):
    import conic_butterfly as cb
    import kernels
    import spans
    import workloads

    full = spans.Tracer(spans.FULL_TARGETS)
    with full:
        workload = workloads.make(args.workload, args.seed, args.size)
    third = args.seconds / 3
    plain, plain_best = measure(workload, third, spans.NullTracer())
    split = spans.Tracer(spans.SPLIT_TARGETS)
    with split:
        split_reps, _ = measure(workload, third, split)
    with full:
        full_reps, full_best = measure(workload, third, full)

    campaign = isinstance(workload, workloads.CampaignWorkload)
    cell = _claim_means(workload.claims, plain_best) if campaign else {}
    generate = split.split_ms("scenarios.generate")
    check = split.split_ms("checks.check")
    metrics = {}
    for claim in cb.CLAIM_ORDER:
        metrics[f"fuzz.cell_ms.{claim}"] = (cell.get(claim, 0.0), "ms")
        metrics[f"scenarios.generate_ms.{claim}"] = (generate.get(claim, 0.0), "ms")
        metrics[f"checks.check_ms.{claim}"] = (check.get(claim, 0.0), "ms")
    counts = Counter(c for c in split.op_claims if c is not None)
    inner_ms = sum((generate.get(c, 0.0) + check.get(c, 0.0)) * n for c, n in counts.items())
    overhead = (split.op_seconds() * 1e3 - inner_ms) / max(split.ops(), 1)
    metrics["fuzz.overhead_ms"] = (overhead if campaign else 0.0, "ms")
    units = {"calls_per_op": "calls/op", "us_per_call": "us", "self_share": "share"}
    for key, value in full.layer_metrics().items():
        metrics[key] = (value, units[key.rsplit(".", 1)[1]])

    own = kernels.Operands()
    descriptors = describe(workload, plain, own)
    metrics["scenarios.retries_per_cell"] = (descriptors["retries_per_cell"], "count")
    other = kernels.Operands()
    for _, report, doc in workload.other_backend_cells():
        other.add(report, doc)
    other_backend = "prime" if workload.backend == "gauss" else "gauss"
    for backend, operands in ((workload.backend, own), (other_backend, other)):
        for key, value in kernels.kernel_timings(backend, operands, args.seed).items():
            metrics[key] = (value, "us")
    metrics["trace.overhead_share"] = (
        1 - throughput(full_best) / throughput(plain_best), "share")

    OUT.mkdir(exist_ok=True)
    split.write(OUT / f"spans-{args.workload}-split.tsv")
    full.write(OUT / f"spans-{args.workload}-full.tsv")
    extra = {"traced_throughput_ops_s": throughput(full_best),
             "untraced_throughput_ops_s": throughput(plain_best),
             "spans": len(full.start) + len(split.start)}
    return workload, plain + split_reps + full_reps, metrics, extra, descriptors


def run_one(args) -> int:
    machine = machine_record()
    import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.setup_only:
        workloads.make(args.workload, args.seed, args.size)
        return 0
    runner = run_trace if args.trace else run_plain
    workload, reps, metrics, extra, descriptors = runner(args)
    if descriptors is None:
        descriptors = describe(workload, reps)
    failed = count_failed(workload, reps, golden_digest(args.workload, args.seed, args.size))
    attempted = workload.ops_per_rep * len(reps)
    correct = failed == 0 and descriptors["redrawn_not_holds"] == 0
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio {failed / attempted:.6g} ({failed}/{attempted} ops)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "digest": reps[0].digest,
                      "descriptors": descriptors, "machine": machine, **extra}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.size is not None:
            cmd += ["--size", str(args.size)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} fail_ratio={res['failed']}/{res['attempted']}")
        for key, m in res["metrics"].items():
            print(f"  {key:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="cells per claim in one repetition (default: the workload's own)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit; used to time set-up")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
