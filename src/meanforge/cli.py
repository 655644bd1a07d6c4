"""Batch front-end: verify, fuzz, contractivity, gen.

Numeric flags accept plain decimals or exact fractions like "9/32" so
range endpoints suffer no decimal drift.

Exit codes: 0 success / expectation met, 1 violations (verify) or
expectation not met (fuzz, contractivity), 2 bad flags, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import inequalities, io
from .dmap import KernelSpec, contractivity_check, kernel_in_hypothesis
from .errors import (MeanforgeError, NoConvergenceError, UnknownCaseError,
                     UnknownParameterError)
from .linalg import random_complex, random_hpd

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_FLAGS = 2
EXIT_NUMERICAL = 3


def parse_number(text: str) -> float:
    """Decimal or p/q fraction."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc


def parse_dims(text: str) -> list[int]:
    dims = [int(d) for d in text.split(",") if d]
    if not dims or any(d < 1 for d in dims) or len(set(dims)) < len(dims):
        raise argparse.ArgumentTypeError(f"bad dims {text!r}")
    return dims


def parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise argparse.ArgumentTypeError(f"bad override {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = parse_number(value)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanforge",
        description="Verify Heinz/Heron operator-mean norm inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the inequality suite")
    p.add_argument("--dims", type=parse_dims, default=[1, 2, 3, 4, 5, 6])
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=parse_number,
                   default=inequalities.DEFAULT_TOLERANCE)
    p.add_argument("--cases", type=str, default=None,
                   help="comma separated case ids (default: all)")
    p.add_argument("--cond-lo", type=parse_number, default=0.05)
    p.add_argument("--cond-hi", type=parse_number, default=20.0)
    p.add_argument("--workers", type=int,
                   default=os.environ.get("MEANFORGE_THREADS", "1"),
                   help="worker processes (default: $MEANFORGE_THREADS or 1)")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("fuzz", help="search for inequality violations")
    p.add_argument("--case", required=True)
    p.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                   help="parameter override, e.g. --set nu=0.1")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=parse_number,
                   default=inequalities.DEFAULT_TOLERANCE)
    p.add_argument("--expect-violation", action="store_true")
    p.add_argument("--out", type=str, default=None,
                   help="write the worst instance to this file")

    p = sub.add_parser("contractivity", help="sampled kernel contractivity")
    p.add_argument("--kernel", required=True,
                   help="kernel kind, e.g. coshRatioT or sinch")
    p.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=parse_number, default=1e-9)
    p.add_argument("--report-only", action="store_true")

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cond-lo", type=parse_number, default=0.05)
    p.add_argument("--cond-hi", type=parse_number, default=20.0)
    p.add_argument("--out", type=str, required=True)
    return parser


def cmd_verify(args) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_BAD_FLAGS
    case_ids = args.cases.split(",") if args.cases else None
    try:
        report = inequalities.run_suite(
            args.dims, args.samples, args.seed, tolerance=args.tol,
            case_ids=case_ids, condition_range=(args.cond_lo, args.cond_hi),
            workers=args.workers)
    except UnknownCaseError as exc:
        print(f"error: unknown case {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except NoConvergenceError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.out:
        io.save_report(report, args.out)
    for case in report.cases:
        status = "ok" if case.violations == 0 else "VIOLATED"
        print(f"{case.id:18s} minMargin={case.min_margin: .3e} "
              f"violations={case.violations} [{status}]"
              + (f" numericalFailures={case.numerical_failures}"
                 if case.numerical_failures else ""))
    print(f"total violations: {report.total_violations} "
          f"({report.elapsed_seconds:.1f}s)")
    if report.total_numerical_failures:
        return EXIT_NUMERICAL
    return EXIT_OK if report.total_violations == 0 else EXIT_VIOLATION


def cmd_fuzz(args) -> int:
    try:
        case = inequalities.get_case(args.case)
    except UnknownCaseError:
        print(f"error: unknown case {args.case!r}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    if args.budget < 1 or args.dim < 1:
        print("error: --budget and --dim must be >= 1", file=sys.stderr)
        return EXIT_BAD_FLAGS
    try:
        overrides = parse_overrides(args.set)
        finding = inequalities.fuzz(case, overrides, args.budget,
                                    np.random.default_rng(args.seed),
                                    dim=args.dim, tolerance=args.tol)
    except (argparse.ArgumentTypeError, UnknownParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    print(f"case {finding.case_id}: worst margin {finding.margin:.6g} "
          f"(normalized {finding.normalized_margin:.6g}) "
          f"after {finding.evaluations} evaluations")
    print(f"params: {json.dumps(finding.params, sort_keys=True)}")
    if args.out:
        io.save_instance(finding.instance, args.out)
        print(f"witness written to {args.out}")
    if finding.violation:
        print("violation found")
    else:
        print("no violation found")
    if args.expect_violation and finding.violation:
        return EXIT_OK
    return EXIT_VIOLATION


def cmd_contractivity(args) -> int:
    alias = {"part1": "coshRatioT", "part2": "coshComboRatio",
             "part3": "sinhRatioT", "part4": "sinhComboRatio"}
    kind = alias.get(args.kernel, args.kernel)
    if args.samples < 1 or args.dim < 1:
        print("error: --samples and --dim must be >= 1", file=sys.stderr)
        return EXIT_BAD_FLAGS
    try:
        params = parse_overrides(args.set)
        spec = KernelSpec(kind, params)
    except (argparse.ArgumentTypeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    rng = np.random.default_rng(args.seed)
    a = random_hpd(args.dim, rng)
    b = random_hpd(args.dim, rng)
    try:
        flags = kernel_in_hypothesis(spec)
        ratio, _ = contractivity_check(spec, a, b, args.samples, rng)
    except KeyError as exc:
        print(f"error: kernel {kind!r} missing parameter {exc}",
              file=sys.stderr)
        return EXIT_BAD_FLAGS
    except MeanforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"maxRatio = {ratio:.12g} "
          f"(hypothesis: literal={flags['literal']} abs={flags['abs']})")
    if args.report_only:
        return EXIT_OK
    return EXIT_OK if ratio <= 1.0 + args.tol else EXIT_VIOLATION


def cmd_gen(args) -> int:
    if args.dim < 1 or not (0 < args.cond_lo <= args.cond_hi):
        print("error: bad --dim or condition range", file=sys.stderr)
        return EXIT_BAD_FLAGS
    rng = np.random.default_rng(args.seed)
    a = random_hpd(args.dim, rng, (args.cond_lo, args.cond_hi))
    b = random_hpd(args.dim, rng, (args.cond_lo, args.cond_hi))
    x = random_complex(args.dim, rng)
    io.save_instance(inequalities.InstanceTriple(a, b, x), args.out)
    print(f"instance written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_FLAGS if exc.code not in (0, None) else EXIT_OK
    handlers = {"verify": cmd_verify, "fuzz": cmd_fuzz,
                "contractivity": cmd_contractivity, "gen": cmd_gen}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
