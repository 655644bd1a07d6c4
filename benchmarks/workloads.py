"""The benchmark's three workloads, one pass each, with output checks.

Every pass is a closed loop in one serial process: the next task starts
when the previous one returns.  A pass returns its wall time, the ops it
attempted and failed, and the latency of each task.

- sweep: ``meanforge verify`` through ``cli.main``; op = case-sample,
  task = (case, dim) cell.  Full size is the criterion-1 config.
- fuzz: ``inequalities.fuzz`` on 12 out-of-range probes that must find a
  violation and 12 in-range controls that must not; op = margin
  evaluation, task = probe.
- contractivity: ``contractivity_check`` over four rational kernel
  families; op = sampled X, task = kernel draw.  Full size is the
  criterion-4 config.

Each workload has a full size, which traced runs use, and a smaller timed
size, whose pass a timed run repeats many times.
"""

from __future__ import annotations

import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

from meanforge import cli, inequalities
from meanforge.dmap import KernelSpec, contractivity_check
from meanforge.errors import MeanforgeError
from meanforge.linalg import random_hpd

from tracer import Patches, resolve

MASTER_SEED = 20240801
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_sweep_20240801.json"
REFERENCE_TOL = 1e-13
CONTRACTIVITY_TOL = 1e-9


@dataclass
class PassResult:
    wall_s: float
    ops: int
    failed: int = 0
    task_s: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # per task, the times between checkpoints inside it, which add up to
    # its time; empty when tasks have no checkpoints
    piece_s: list = field(default_factory=list)

    def pieces(self) -> list:
        return self.piece_s or [[t] for t in self.task_s]


# ---------------------------------------------------------------------------
# sweep

SWEEP_FULL = {"dims": (1, 2, 3, 4, 5, 6), "samples": 200}
# Timed passes: the same cells with 5 samples each, so that a run repeats
# every cell many times.
SWEEP_TIMED = {"dims": (1, 2, 3, 4, 5, 6), "samples": 5}
SWEEP_SMOKE = {"dims": (1, 2), "samples": 2}


def sweep_reference(seed: int, size: dict):
    """The seed commit's per-case minima, when this run can be compared
    with them: the master seed at the full criterion-1 config."""
    if seed != MASTER_SEED or size != SWEEP_FULL:
        return None
    return json.loads(REFERENCE_PATH.read_text())


def patch(patches: Patches, name: str, make_wrapper) -> None:
    """Wrap ``inequalities.<name>``; the timed workloads cut their tasks at
    its calls and cannot run without it."""
    found = resolve(inequalities, name)
    if found is None:
        raise RuntimeError(f"inequalities.{name} is gone; the benchmark "
                           f"times its tasks at its calls")
    patches.replace(*found, make_wrapper)


def checkpointed(marks: list):
    """Wrapper factory that appends the time to ``marks`` as each call
    returns."""
    def make(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(perf_counter())
        return wrapper
    return make


def sweep_report(seed: int, size: dict, out_dir: Path, hooks=()):
    """Run ``meanforge verify`` in-process with each (name, wrapper
    factory) of ``hooks`` wrapping ``inequalities.<name>``; returns (exit
    code, report dict or None, wall seconds)."""
    out = Path(out_dir) / "sweep-report.json"
    out.unlink(missing_ok=True)
    argv = ["verify", "--seed", str(seed),
            "--dims", ",".join(str(d) for d in size["dims"]),
            "--samples", str(size["samples"]), "--out", str(out)]
    with Patches() as patches, redirect_stdout(StringIO()):
        for name, make_wrapper in hooks:
            patch(patches, name, make_wrapper)
        t0 = perf_counter()
        rc = cli.main(argv)
        wall = perf_counter() - t0
    report = json.loads(out.read_text()) if out.exists() else None
    return rc, report, wall


def check_sweep(rc: int, report, size: dict, reference=None):
    """(failed ops, error lines).  A case that fails any check fails all
    of its dims x samples case-samples."""
    per_case = len(size["dims"]) * size["samples"]
    total = per_case * len(inequalities.CASE_IDS)
    if report is None:
        return total, [f"no report written (exit code {rc})"]
    failed, errors = 0, []
    seen = set()
    for case in report["cases"]:
        seen.add(case["id"])
        values = [case["minMargin"], *case["steps"]]
        problems = []
        if case["violations"]:
            problems.append(f"{case['violations']} violations")
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite margin")
        if reference is not None:
            ref = reference["cases"].get(case["id"])
            want = None if ref is None else [ref["minMargin"], *ref["steps"]]
            if want is None or len(want) != len(values) or any(
                    not abs(v - w) <= REFERENCE_TOL
                    for v, w in zip(values, want)):
                problems.append("minima differ from the reference")
        if problems:
            failed += per_case
            errors.append(f"{case['id']}: {', '.join(problems)}")
    if reference is not None:
        for cid in sorted(set(reference["cases"]) - seen):
            failed += per_case
            errors.append(f"{cid}: missing from the report")
    if rc != 0 and failed == 0:
        failed = total
        errors.append(f"verify exit code {rc}")
    return min(failed, total), errors


def sweep_pass(seed: int, size: dict, out_dir: Path, reference=None,
               tracer=None) -> PassResult:
    """Cells are timed in pieces that end at each sample's draw
    (``make_instance``) and margins (``step_margins``), so that a cell's
    best time can be put together from the fastest repeat of each
    piece."""
    cells, pieces, marks = [], [], []

    def timed(fn):
        def cell(task):
            marks[:] = [perf_counter()]
            try:
                return fn(task)
            finally:
                marks.append(perf_counter())
                cells.append(marks[-1] - marks[0])
                pieces.append(np.diff(marks))
        return cell

    hooks = (("_run_case_dim", timed), ("make_instance", checkpointed(marks)),
             ("step_margins", checkpointed(marks)))
    rc, report, wall = sweep_report(seed, size, out_dir, hooks)
    failed, errors = check_sweep(rc, report, size, reference)
    ops = len(size["dims"]) * size["samples"] * len(inequalities.CASE_IDS)
    return PassResult(wall, ops, failed, cells, errors, pieces)


# ---------------------------------------------------------------------------
# fuzz

# Out-of-range parameters for which a violation exists, and in-range
# controls for which none may be reported.
FUZZ_VIOLATING = (("eq1.2", {"nu": 0.1, "alpha": 0.5}),
                  ("eq1.4-chain", {"alpha": 0.2}),
                  ("eq2.9", {"nu": 0.05, "alpha": 0.5}))
FUZZ_CONTROLS = (("eq1.2", {"nu": 0.3, "alpha": 0.5}),
                 ("eq1.4-chain", {"alpha": 0.5}),
                 ("eq2.9", {"nu": 0.3, "alpha": 0.5}))
FUZZ_FULL = {"dims": (1, 2, 3, 4), "budget": 1000}
# Timed passes: the same probes with a smaller budget (still enough for
# every violating probe to find its violation).
FUZZ_TIMED = {"dims": (1, 2, 3, 4), "budget": 300}
FUZZ_SMOKE = {"dims": (1,), "budget": 12}


def fuzz_probes(dims) -> list:
    """(case id, overrides, dim, violation expected) for every probe."""
    return [(cid, overrides, dim, expect)
            for expect, group in ((True, FUZZ_VIOLATING),
                                  (False, FUZZ_CONTROLS))
            for cid, overrides in group for dim in dims]


def fuzz_pass(seed: int, size: dict, out_dir=None, reference=None,
              tracer=None) -> PassResult:
    """Probes are timed in pieces that end at each margin evaluation
    (``inequalities._instance_margin``), so that a probe's best time can
    be put together from the fastest repeat of each piece."""
    budget = size["budget"]
    result = PassResult(0.0, 0)
    marks = []
    start = perf_counter()
    with Patches() as patches:
        patch(patches, "_instance_margin", checkpointed(marks))
        for i, (cid, overrides, dim, expect) in enumerate(
                fuzz_probes(size["dims"])):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(i,)))
            if tracer is not None:
                tracer.current_task = i
            marks[:] = [perf_counter()]
            try:
                finding = inequalities.fuzz(inequalities.get_case(cid),
                                            dict(overrides), budget, rng,
                                            dim=dim)
                evals = finding.evaluations
                ok = bool(finding.violation) == expect
                detail = f"violation={bool(finding.violation)}"
            except (MeanforgeError, np.linalg.LinAlgError) as exc:
                evals, ok, detail = budget, False, repr(exc)
            marks.append(perf_counter())
            result.task_s.append(marks[-1] - marks[0])
            result.piece_s.append(np.diff(marks))
            result.ops += evals
            if not ok:
                result.failed += evals
                result.errors.append(f"probe {i} {cid} {overrides} dim "
                                     f"{dim}: {detail}, expected "
                                     f"violation={expect}")
    result.wall_s = perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# contractivity

CONTRACTIVITY_FULL = {"dims": (2, 3, 4, 5, 6), "draws": 50, "samples": 50}
# Timed passes: the first 10 draws of each family, two at each dim.
CONTRACTIVITY_TIMED = {"dims": (2, 3, 4, 5, 6), "draws": 10, "samples": 50}
CONTRACTIVITY_SMOKE = {"dims": (2, 3), "draws": 2, "samples": 3}


def contractivity_pass(seed: int, size: dict, out_dir=None, reference=None,
                       tracer=None) -> PassResult:
    dims, samples = size["dims"], size["samples"]
    result = PassResult(0.0, 0)
    start = perf_counter()
    # the registry's sampled-contractivity cases and each one's kernel family
    for fi, (cid, kind) in enumerate(inequalities._PROP_KINDS.items()):
        sampler = inequalities.get_case(cid).sampler
        for draw in range(size["draws"]):
            # seed + 2 makes the master seed reproduce criterion 4's draws
            ss = np.random.SeedSequence(seed + 2, spawn_key=(fi, draw))
            rng = np.random.default_rng(ss)
            dim = dims[draw % len(dims)]
            if tracer is not None:
                tracer.current_task = fi * size["draws"] + draw
            t0 = perf_counter()
            try:
                spec = KernelSpec(kind, sampler(rng))
                a, b = random_hpd(dim, rng), random_hpd(dim, rng)
                ratio, _ = contractivity_check(spec, a, b, samples, rng)
                ok = math.isfinite(ratio) and ratio <= 1.0 + CONTRACTIVITY_TOL
                detail = f"ratio {ratio!r}"
            except (MeanforgeError, np.linalg.LinAlgError) as exc:
                ok, detail = False, repr(exc)
            result.task_s.append(perf_counter() - t0)
            result.ops += samples
            if not ok:
                result.failed += samples
                result.errors.append(f"{kind} draw {draw} dim {dim}: {detail}")
    result.wall_s = perf_counter() - start
    return result


def traced_modules() -> dict:
    """The package modules whose names the tracer wraps."""
    from meanforge import dmap, io, linalg, means, norms
    return {"cli": cli, "dmap": dmap, "inequalities": inequalities,
            "io": io, "linalg": linalg, "means": means, "norms": norms}


@dataclass(frozen=True)
class Workload:
    run: object
    full: dict  # traced runs and the reference
    timed: dict  # timed passes
    smoke: dict
    op: str
    task: str
    pass_s: float  # seconds per timed pass on the seed commit, 2 vCPUs


WORKLOADS = {
    "sweep": Workload(sweep_pass, SWEEP_FULL, SWEEP_TIMED, SWEEP_SMOKE,
                      "case-samples", "(case, dim) cells", 0.5),
    "fuzz": Workload(fuzz_pass, FUZZ_FULL, FUZZ_TIMED, FUZZ_SMOKE,
                     "margin evaluations", "probes", 2.4),
    "contractivity": Workload(contractivity_pass, CONTRACTIVITY_FULL,
                              CONTRACTIVITY_TIMED, CONTRACTIVITY_SMOKE,
                              "sampled X", "kernel draws", 0.4),
}
