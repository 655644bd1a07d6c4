"""Batch front-end: verify, fuzz, contractivity, gen.

Numeric flags accept plain decimals or exact fractions like "9/32" so
range endpoints suffer no decimal drift.  The parser checks every flag;
``main`` maps the package's errors to exit codes in one place.

Exit codes: 0 success / expectation met, 1 violations (verify) or
expectation not met (fuzz, contractivity), 2 bad flags, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import inequalities, io
from .dmap import (KERNEL_PARAMS, RATIONAL_FAMILIES, KernelSpec,
                   contractivity_check, kernel_in_hypothesis)
from .errors import MeanforgeError, UnknownCaseError, UnknownParameterError
from .linalg import random_complex, random_hpd

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_FLAGS = 2
EXIT_NUMERICAL = 3

KERNEL_ALIASES = {f"part{i}": k for i, k in enumerate(RATIONAL_FAMILIES, 1)}


def parse_number(text: str) -> float:
    """Finite decimal or p/q fraction."""
    try:
        value = float(Fraction(text) if "/" in text else text)
        if math.isfinite(value):
            return value
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"bad number {text!r}")


def _int_at_least(least: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below {least}")
        return value
    return integer


parse_count = _int_at_least(1)
parse_seed = _int_at_least(0)


def parse_dims(text: str) -> list[int]:
    dims = [parse_count(d) for d in text.split(",") if d]
    if not dims or len(set(dims)) < len(dims):
        raise argparse.ArgumentTypeError(f"bad dims {text!r}")
    return dims


def parse_override(text: str) -> tuple[str, float]:
    """NAME=VALUE with a finite value."""
    name, sep, value = text.partition("=")
    if not (name and sep):
        raise argparse.ArgumentTypeError(f"bad override {text!r}")
    return name, parse_number(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanforge",
        description="Verify Heinz/Heron operator-mean norm inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the inequality suite")
    p.add_argument("--dims", type=parse_dims, default=[1, 2, 3, 4, 5, 6])
    p.add_argument("--samples", type=parse_count, default=200)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--tol", type=parse_number,
                   default=inequalities.DEFAULT_TOLERANCE)
    p.add_argument("--cases", type=str, default=None,
                   help="comma separated case ids (default: all)")
    p.add_argument("--cond-lo", type=parse_number, default=0.05)
    p.add_argument("--cond-hi", type=parse_number, default=20.0)
    p.add_argument("--workers", type=parse_count, default=1,
                   help="worker processes (default: 1)")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("fuzz", help="search for inequality violations")
    p.add_argument("--case", required=True)
    p.add_argument("--set", type=parse_override, action="append", default=[],
                   metavar="NAME=VALUE",
                   help="parameter override, e.g. --set nu=0.1")
    p.add_argument("--budget", type=parse_count, default=1000)
    p.add_argument("--dim", type=parse_count, default=1)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--tol", type=parse_number,
                   default=inequalities.DEFAULT_TOLERANCE)
    p.add_argument("--expect-violation", action="store_true")
    p.add_argument("--out", type=str, default=None,
                   help="write the worst instance to this file")

    p = sub.add_parser("contractivity", help="sampled kernel contractivity")
    p.add_argument("--kernel", required=True,
                   choices=[*KERNEL_PARAMS, *KERNEL_ALIASES],
                   help="kernel kind; part1-part4 name the four rational "
                        "families")
    p.add_argument("--set", type=parse_override, action="append", default=[],
                   metavar="NAME=VALUE")
    p.add_argument("--dim", type=parse_count, default=4)
    p.add_argument("--samples", type=parse_count, default=100)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--tol", type=parse_number, default=1e-9)
    p.add_argument("--report-only", action="store_true")

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--dim", type=parse_count, required=True)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--cond-lo", type=parse_number, default=0.05)
    p.add_argument("--cond-hi", type=parse_number, default=20.0)
    p.add_argument("--out", type=str, required=True)
    return parser


def cmd_verify(args) -> int:
    report = inequalities.run_suite(
        args.dims, args.samples, args.seed, tolerance=args.tol,
        case_ids=args.cases.split(",") if args.cases else None,
        condition_range=(args.cond_lo, args.cond_hi), workers=args.workers)
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
    finding = inequalities.fuzz(inequalities.get_case(args.case),
                                dict(args.set), args.budget,
                                np.random.default_rng(args.seed),
                                dim=args.dim, tolerance=args.tol)
    print(f"case {finding.case_id}: worst margin {finding.margin:.6g} "
          f"(normalized {finding.normalized_margin:.6g}) "
          f"after {finding.evaluations} evaluations")
    print(f"params: {json.dumps(finding.params, sort_keys=True)}")
    if args.out:
        io.save_instance(finding.instance, args.out)
        print(f"witness written to {args.out}")
    if not np.isfinite(finding.normalized_margin):
        print("error: numerical failure: the worst margin is not finite",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print("violation found" if finding.violation else "no violation found")
    return (EXIT_OK if args.expect_violation and finding.violation
            else EXIT_VIOLATION)


def cmd_contractivity(args) -> int:
    spec = KernelSpec(KERNEL_ALIASES.get(args.kernel, args.kernel),
                      dict(args.set))
    rng = np.random.default_rng(args.seed)
    a = random_hpd(args.dim, rng)
    b = random_hpd(args.dim, rng)
    flags = kernel_in_hypothesis(spec)
    ratio, _ = contractivity_check(spec, a, b, args.samples, rng)
    print(f"maxRatio = {ratio:.12g} "
          f"(hypothesis: literal={flags['literal']} abs={flags['abs']})")
    return (EXIT_OK if args.report_only or ratio <= 1.0 + args.tol
            else EXIT_VIOLATION)


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    a = random_hpd(args.dim, rng, (args.cond_lo, args.cond_hi))
    b = random_hpd(args.dim, rng, (args.cond_lo, args.cond_hi))
    x = random_complex(args.dim, rng)
    io.save_instance(inequalities.InstanceTriple(a, b, x), args.out)
    print(f"instance written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    handlers = {"verify": cmd_verify, "fuzz": cmd_fuzz,
                "contractivity": cmd_contractivity, "gen": cmd_gen}
    try:
        args = parser.parse_args(argv)
        if "cond_lo" in args and not 0 < args.cond_lo <= args.cond_hi:
            parser.error("need 0 < --cond-lo <= --cond-hi")
        return handlers[args.command](args)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_FLAGS
    except (UnknownCaseError, UnknownParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except (MeanforgeError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
