"""Measure the benchmark's run-to-run spread and write BENCH_baseline.json.

    python3 benchmarks/baseline.py [--seconds 30] [--runs 10] [--out FILE]

Runs every workload untraced at seeds 1..runs (the first set), then again
at seeds runs+1..2*runs (the repeat set), each run a fresh process, one
after another; then one traced run per workload at the master seed.  For
each end-to-end metric it records every value and, per set, the median,
the quartiles and the spread (q3 - q1) / median from
``statistics.quantiles(n=4)``, and the change of the repeat set's median
against the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("sweep", "fuzz", "contractivity")
MASTER_SEED = 20240801


def one_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def describe(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_baseline.json")
    args = parser.parse_args()

    sets = {"seeds": range(1, args.runs + 1),
            "repeat_seeds": range(args.runs + 1, 2 * args.runs + 1)}
    results = {name: {key: [] for key in sets} for name in NAMES}
    for key, seeds in sets.items():
        for name in NAMES:
            for seed in seeds:
                result = one_run(name, seed, args.seconds, 0)
                results[name][key].append(result)
                print(name, seed, {m: round(v["value"], 4)
                                   for m, v in result["metrics"].items()},
                      flush=True)

    workloads = {}
    for name in NAMES:
        runs = results[name]["seeds"] + results[name]["repeat_seeds"]
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            sides = [describe([r["metrics"][metric]["value"]
                               for r in results[name][key]]) for key in sets]
            metrics[metric] = {"unit": first["unit"], "first": sides[0],
                               "repeat": sides[1],
                               "median_change": sides[1]["median"]
                               / sides[0]["median"] - 1.0}
            print(f"{name} {metric}: spread {sides[0]['spread']:.4f} / "
                  f"{sides[1]['spread']:.4f}, median change "
                  f"{metrics[metric]['median_change']:+.4f}", flush=True)
        workloads[name] = {
            **{key: list(seeds) for key, seeds in sets.items()},
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs], "metrics": metrics}

    traced = {}
    for name in NAMES:
        result = one_run(name, MASTER_SEED, args.seconds, 1)
        traced[name] = {**result, "metrics": {
            m: v["value"] for m, v in result["metrics"].items()}}
    fingerprint = json.loads((ROOT / ".bench_out" / (
        f"result-sweep-{MASTER_SEED}-trace1.json")).read_text())["fingerprint"]

    args.out.write_text(json.dumps({
        "description": "Seed-commit baseline of the meanforge benchmark",
        "method": (f"python3 benchmarks/baseline.py --seconds {args.seconds:g}"
                   f" --runs {args.runs}: see its docstring"),
        "workloads": workloads, "traced": traced,
        "fingerprint": fingerprint}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
