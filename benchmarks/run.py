"""meanforge benchmark.

    python3 benchmarks/run.py --workload sweep|fuzz|contractivity|all \
        --seed N --seconds S --trace 0|1

Run from the repository root (or any copy of it); the package is imported
from ``src/``.  With ``--trace 0`` the workload repeats its timed pass, a
small one, as many times as fill ``--seconds`` at its nominal pass time,
times each task of each pass, and prints the end-to-end metrics from each
task's fastest repeat.  With ``--trace 1`` it runs one untraced and one
traced pass at the workload's full size and prints the per-layer metrics.
Either way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

BLAS is pinned to one thread and MEANFORGE_THREADS is cleared, in this
process and the set-up processes it starts only.  See README.md here for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_SAMPLES = 21
TAIL_BEYOND = 10

END_TO_END = {"ops_per_s": "ops/s", "task_p50_ms": "ms",
              "task_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# 24 registry ids at the time the benchmark was defined; per-case layer
# metrics keep these names even if the registry changes.
CASE_METRIC_IDS = (
    "eq1.1", "eq1.2", "eq1.3", "refAli", "eq1.4-chain", "eq1.4-alpha-mono",
    "eq2.2", "eq2.3", "eq2.7", "eq2.8", "eq2.9", "avg-12", "avg-14",
    "avg-716", "avg-516", "eq2.10", "eq2.11", "eq2.12", "eq2.13",
    "f-nu-shape", "prop2.1-1", "prop2.1-2", "prop2.1-3", "prop2.1-4")
DIM_METRIC_IDS = (1, 2, 3, 4, 5, 6)

# layer metric -> (tracer layer, field, unit); "self_s" is span time
# minus child spans, "calls" a call count.
LAYER_FIELDS = {
    "linalg.draw_s": ("linalg.draw", "self_s", "s"),
    "linalg.draw_calls": ("linalg.draw", "calls", "count"),
    "linalg.power_s": ("linalg.power", "self_s", "s"),
    "linalg.power_calls": ("linalg.power", "calls", "count"),
    "linalg.svd_s": ("linalg.svd", "self_s", "s"),
    "linalg.svd_calls": ("linalg.svd", "calls", "count"),
    "linalg.from_spectrum_calls": ("linalg.from_spectrum", "calls", "count"),
    "means.build_s": ("means.build", "self_s", "s"),
    "means.calls": ("means.build", "calls", "count"),
    "dmap.kernel_s": ("dmap.kernel", "self_s", "s"),
    "dmap.kernel_calls": ("dmap.kernel", "calls", "count"),
    "dmap.apply_s": ("dmap.apply", "self_s", "s"),
    "dmap.apply_calls": ("dmap.apply", "calls", "count"),
    "norms.ky_fan_s": ("norms.ky_fan", "self_s", "s"),
    "norms.ky_fan_calls": ("norms.ky_fan", "calls", "count"),
    "inequalities.builder_s": ("inequalities.builder", "self_s", "s"),
    "inequalities.margins_s": ("inequalities.margins", "self_s", "s"),
    "inequalities.reduce_s": ("inequalities.cell", "self_s", "s"),
    "inequalities.merge_s": ("inequalities.merge", "self_s", "s"),
    "io.report_write_s": ("io.report_write", "self_s", "s"),
}
PER_LAYER_EXTRA = {
    "linalg.svd_per_op": "count/op",
    "inequalities.fuzz_accept_frac": "ratio",
    "io.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.absent_layers": "count",
}


def per_layer_units() -> dict:
    units = {name: unit for name, (_, _, unit) in LAYER_FIELDS.items()}
    units.update(PER_LAYER_EXTRA)
    units.update({f"case.{cid}.s": "s" for cid in CASE_METRIC_IDS})
    units.update({f"dim.{n}.s": "s" for n in DIM_METRIC_IDS})
    return units


def pin_environment() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MEANFORGE_THREADS", None)


# ---------------------------------------------------------------------------
# fingerprint

def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy as np
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "blas_threads_env": {v: os.environ.get(v)
                                 for v in BLAS_THREAD_VARS},
            "machine": platform.machine(), "commit": git_commit()}


# ---------------------------------------------------------------------------
# set-up

# A fresh interpreter imports the package (which builds the registry) and
# runs its first evaluation through the CLI; it prints the seconds taken.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contextlib, io
from meanforge import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify", "--cases", "eq1.2", "--dims", "2", "--samples", "1"])
print(time.perf_counter() - t0)
"""


def measure_setup() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_gaps(passes: int, samples: int) -> list:
    """How many set-up processes to run before each pass and after the
    last (``passes + 1`` gaps), ``samples`` in all, spread evenly over the
    run: the machine's speed drifts over seconds, and samples taken back
    to back all see the same moment of it."""
    counts = [0] * (passes + 1)
    for k in range(samples):
        counts[round(k * passes / max(samples - 1, 1))] += 1
    return counts


# ---------------------------------------------------------------------------
# metrics

def tail(values: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples beyond it (the largest value if there are fewer)."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def accept_fraction(margins: list, budget: int) -> float:
    """Accepted coordinate moves over candidate evaluations in the fuzzer.

    ``margins`` is (probe, raw margin) for every evaluation in call order.
    The first max(1, budget // 3) evaluations of a probe are random
    restarts; each later one is a candidate, accepted when it lowers the
    best raw margin by more than 1e-15 (the fuzzer's own rule).
    """
    by_probe: dict = {}
    for probe, raw in margins:
        by_probe.setdefault(probe, []).append(raw)
    n_random = max(1, budget // 3)
    accepted = candidates = 0
    for raws in by_probe.values():
        if len(raws) <= n_random:
            continue
        best = min(raws[:n_random])
        for raw in raws[n_random:]:
            candidates += 1
            if raw < best - 1e-15:
                accepted += 1
                best = raw
    return accepted / candidates if candidates else 0.0


def best_task_time(repeats: list) -> float:
    """Best time of one task from its repeats, one list of pieces per
    pass: the sum of each piece's fastest repeat, or the fastest whole
    repeat if the repeats were not cut into the same number of pieces."""
    import numpy as np
    if len({len(pieces) for pieces in repeats}) > 1:
        return float(min(np.sum(pieces) for pieces in repeats))
    return float(np.min(np.array(repeats, dtype=float), axis=0).sum())


def best_of_passes(passes: list) -> tuple[list, float]:
    """Each task's best time over the passes, and the shortest time a pass
    spent outside its tasks.  Every pass runs the same tasks in the same
    order on the same inputs, so task i of one pass repeats task i of the
    others; the fastest repeat is the one that the machine's slow
    stretches did not touch."""
    best = [best_task_time(repeats)
            for repeats in zip(*(p.pieces() for p in passes))]
    outside = min(p.wall_s - sum(p.task_s) for p in passes)
    return best, max(outside, 0.0)


def end_to_end_metrics(passes: list, setup: list) -> tuple[dict, list]:
    best, outside = best_of_passes(passes)
    tail_value, tail_pct = tail(best)
    values = {
        "ops_per_s": passes[0].ops / (sum(best) + outside),
        "task_p50_ms": 1e3 * statistics.median(best),
        "task_tail_ms": 1e3 * tail_value,
        "setup_s": statistics.median(setup),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = [f"each of the {len(best)} tasks of a pass timed by its fastest "
             f"repeat over {len(passes)} pass(es), piece by piece where it "
             f"has checkpoints",
             f"task_p50_ms over {len(best)} tasks",
             f"task_tail_ms is p{tail_pct:.1f} of {len(best)} tasks "
             f"({min(TAIL_BEYOND, len(best) - 1)} beyond it)",
             f"ops_per_s is a pass's ops over its best task times plus "
             f"{outside:.4g} s outside the tasks (its best)",
             f"setup_s is the median of {len(setup)} fresh processes, "
             f"run before, between and after the passes"]
    return values, notes


def per_layer_metrics(tracer, traced, untraced, size: dict) -> dict:
    summary = tracer.summary()
    values = {name: summary.get(layer, {}).get(fld, 0)
              for name, (layer, fld, _) in LAYER_FIELDS.items()}
    svd_calls = summary.get("linalg.svd", {}).get("calls", 0)
    values["linalg.svd_per_op"] = svd_calls / traced.ops
    values["inequalities.fuzz_accept_frac"] = accept_fraction(
        tracer.margins, size.get("budget", 0))
    values["io.report_bytes"] = tracer.report_bytes
    values["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    values["trace.absent_layers"] = len(tracer.absent)
    by_case = dict.fromkeys(CASE_METRIC_IDS, 0.0)
    by_dim = dict.fromkeys(DIM_METRIC_IDS, 0.0)
    for cid, dim, seconds in tracer.cell_seconds():
        if cid in by_case:
            by_case[cid] += seconds
        if dim in by_dim:
            by_dim[dim] += seconds
    values.update({f"case.{cid}.s": s for cid, s in by_case.items()})
    values.update({f"dim.{n}.s": s for n, s in by_dim.items()})
    return values


# ---------------------------------------------------------------------------
# runs

def pass_count(spec, seconds: float) -> int:
    """Whole passes that fill ``seconds`` at the workload's nominal pass
    time.  The count depends on nothing measured, so two commits run the
    same work."""
    return max(1, math.floor(seconds / spec.pass_s + 0.5))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, setup_samples: int = SETUP_SAMPLES,
                 out=print) -> dict:
    """Run one workload and return the result object; human-readable
    lines go to ``out``."""
    import workloads
    from tracer import Tracer

    spec = workloads.WORKLOADS[name]
    size = spec.smoke if smoke else spec.full if trace else spec.timed
    reference = workloads.sweep_reference(seed, size)
    OUT_DIR.mkdir(exist_ok=True)
    info = fingerprint()

    def one_pass(tracer=None):
        return spec.run(seed, size, OUT_DIR, reference, tracer)

    spec.run(seed, spec.smoke, OUT_DIR, None, None)  # warm-up, unchecked
    setup = []

    if trace:
        untraced = one_pass()
        tracer = Tracer()
        tracer.install(workloads.traced_modules())
        try:
            traced = one_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.save(OUT_DIR / f"spans-{name}-{seed}.npz")
        passes = [untraced, traced]
        values = per_layer_metrics(tracer, traced, untraced, size)
        units = per_layer_units()
        notes = [f"absent layer: {a}" for a in tracer.absent]
        notes.append(f"spans written to {OUT_DIR.name}/spans-{name}-{seed}"
                     ".npz")
    else:
        count = pass_count(spec, seconds)
        gaps = setup_gaps(count, setup_samples)
        passes = []
        for before in gaps[:-1]:
            setup += [measure_setup() for _ in range(before)]
            passes.append(one_pass())
        setup += [measure_setup() for _ in range(gaps[-1])]
        values, notes = end_to_end_metrics(passes, setup)
        units = END_TO_END

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    out(f"workload {name}, seed {seed}, trace {int(trace)}: {len(passes)} "
        f"pass(es), {attempted} {spec.op}, "
        f"{sum(len(p.task_s) for p in passes)} {spec.task}")
    for metric, unit in units.items():
        out(f"{metric} = {values[metric]:.6g} {unit}")
    for note in notes:
        out(f"  {note}")
    out(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} "
        f"{spec.op} failed)")
    for error in errors[:20]:
        out(f"  FAILED {error}")
    out(f"fingerprint: {json.dumps(info, sort_keys=True)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m: {"value": values[m], "unit": u}
                          for m, u in units.items()}}
    (OUT_DIR / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "fingerprint": info, "errors": errors,
                    "pass_wall_s": [p.wall_s for p in passes],
                    "pass_task_s": [p.task_s for p in passes],
                    "setup_runs_s": setup}))
    return result


def run_all(args) -> int:
    """Each workload in its own fresh process; 0 iff all are correct."""
    correct = True
    for name in ("sweep", "fuzz", "contractivity"):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        ok = done.returncode == 0 and bool(lines)
        correct = correct and ok and json.loads(lines[-1])["correct"]
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fuzz", "contractivity", "all"))
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import workloads  # noqa: F401  (imports meanforge)
    except ImportError as exc:
        print(f"error: cannot import the benchmark or meanforge from "
              f"{SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
