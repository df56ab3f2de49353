"""Command-line front end.

Exit status contract, shared by every subcommand that checks geometry:
0 when everything HOLDS, 1 when anything is VIOLATED, 2 for input errors,
output that could not be written, or a run that never got past DEGENERATE.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from .scalars import BACKENDS, GaussianRational
from .projective import (ProjLine, ProjPoint, cross_ratio, join, meet)
from .conics import Conic
from .reflection import ReflectionFrame
from .reports import exit_status
from .scenario_io import CLAIM_ORDER, parse_scenario, run_document
from .fuzz import CampaignConfig, CampaignCounts, run_campaign
from .render import render_svg

__all__ = ["main"]

_INPUT_ERRORS = (OSError, ValueError)


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _emit(out, close: bool, write) -> bool:
    """Run write(out), flush and close; False after printing a write error.

    When stdout itself broke, its descriptor is pointed at /dev/null so the
    interpreter's exit-time flush of what is still buffered cannot raise again.
    """
    try:
        try:
            write(out)
            out.flush()
        finally:
            if close:
                out.close()
    except OSError as exc:
        if out is sys.stdout:
            _drop_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _drop_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor; nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _read_document(path: str):
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        return parse_scenario(fh.read())


def _cmd_verify(args) -> int:
    try:
        reports = run_document(_read_document(args.file))
        out, close = _open_out(args.out)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(r.to_text() for r in reports) + "\n"
    if not _emit(out, close, lambda fh: fh.write(text)):
        return 2
    return exit_status(reports)


def _parse_checks(text: Optional[str]) -> Optional[tuple]:
    """The claims --checks names, or None for every claim the backend runs."""
    return None if text is None else tuple(c.strip() for c in text.split(",") if c.strip())


def _cmd_fuzz(args) -> int:
    counts = CampaignCounts()
    try:
        config = CampaignConfig(args.seed, args.count, args.backend, args.height,
                                _parse_checks(args.checks))
        lines = run_campaign(config, jobs=args.jobs, counts=counts)
        out, close = _open_out(args.out)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()

    def write(fh) -> None:
        for line in lines:
            fh.write(line + "\n")

    if not _emit(out, close, write):
        return 2
    # wall clock goes to stderr so the report stream stays byte-identical
    print(f"runtime {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return counts.exit_status()


def _cmd_render(args) -> int:
    try:
        render_svg(_read_document(args.file), args.out)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _demo_lemma1(out) -> None:
    G = GaussianRational
    conic = Conic.from_upper_entries(["0", "1/2", "1/2", "0", "-1", "0"], G)
    u = ProjPoint.parse("(0 : 1 : 0)", G)
    v = ProjPoint.parse("(0 : 0 : 1)", G)
    k = ProjLine.parse("(1 : 0 : 0)", G)
    tangent_u = conic.tangent_at(u)
    tangent_v = conic.tangent_at(v)
    pole = conic.pole(k)
    tangent_meet = meet(tangent_u, tangent_v)
    assert tangent_meet == pole
    frame = ReflectionFrame(conic, k)
    y = ProjPoint.parse("(1 : 1 : 1)", G)
    n = meet(join(pole, y), k)
    y_prime = frame.reflect_point(y)
    ratio = cross_ratio(pole, y, n, y_prime)
    assert ratio.is_harmonic()
    assert frame.reflect_point(y_prime) == y

    out.write("worked example: harmonic reflection across a chord\n")
    out.write("\n")
    out.write(f"conic xy + xz - 2yz = 0, upper-triangle entries {conic}\n")
    out.write(f"axis k: x = 0, a chord with conic points u = {u} and v = {v}\n")
    out.write(f"tangent at u: {tangent_u}\n")
    out.write(f"tangent at v: {tangent_v}\n")
    out.write(f"the tangents meet at {tangent_meet}\n")
    out.write(f"pole of k via the polarity: {pole}  (same point, as it must be)\n")
    out.write("\n")
    out.write(f"take y = {y}\n")
    out.write(f"the line through the pole and y meets k at n = {n}\n")
    out.write(f"reflection sends y to y' = {y_prime}\n")
    out.write(f"cross-ratio cr(p, y, n, y') = {ratio}  (harmonic)\n")
    out.write(f"reflecting y' lands back on {frame.reflect_point(y_prime)}: an involution\n")


_DEMOS = {"lemma1": _demo_lemma1}


def _cmd_demo(args) -> int:
    try:
        out, close = _open_out(args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if _emit(out, close, _DEMOS[args.name]) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="butterfly",
        description="Exact projective checks of conic butterfly configurations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the check a scenario file declares")
    p.add_argument("file", help="scenario document (.scn)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz", help="run a seeded campaign of random scenarios")
    p.add_argument("--seed", type=int, required=True, help="campaign seed (64-bit)")
    p.add_argument("--count", type=int, required=True, help="scenarios per check")
    p.add_argument("--backend", choices=sorted(BACKENDS), default="gauss")
    p.add_argument("--height", type=int, default=10, help="coefficient height bound")
    p.add_argument("--checks", default=None,
                   help="comma-separated subset of: " + ",".join(CLAIM_ORDER))
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; output bytes do not depend on this")
    p.add_argument("--out", default=None, help="write the stream here instead of stdout")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("demo", help="print a worked example end-to-end")
    p.add_argument("name", choices=sorted(_DEMOS))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("render", help="draw a real scenario as an SVG figure")
    p.add_argument("file", help="scenario document (.scn)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
