"""Tests of the benchmark itself: run with ``python -m pytest benchmarks``."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import SPAN_TARGETS, COUNT_TARGETS, Tracer, resolve

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["sweep", "fuzz", "contractivity"])
def test_smoke_run_emits_every_declared_metric(name, trace):
    lines = []
    result = run.run_workload(name, 3, 0.0, trace, smoke=True,
                              setup_samples=1, out=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {m: v["unit"] for m, v in result["metrics"].items()}
    assert got == declared
    for metric, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), metric
        assert math.isfinite(value["value"]), metric
        assert any(line.startswith(f"{metric} = ") for line in lines)
    assert any(line.startswith("fail_frac = ") for line in lines)
    json.dumps(result)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def _snapshot(modules):
    targets = [(m, p) for _, m, p in SPAN_TARGETS + COUNT_TARGETS]
    raw = {t: resolve(modules[t[0]], t[1])[2] for t in targets}
    return raw, dict(modules["inequalities"].REGISTRY)


def test_wrappers_removed_after_tracing():
    modules = workloads.traced_modules()
    before = _snapshot(modules)
    tracer = Tracer()
    tracer.install(modules)
    try:
        during = _snapshot(modules)
        assert all(during[0][t] is not before[0][t] for t in before[0])
        assert all(during[1][c] is not before[1][c] for c in before[1])
        workloads.sweep_pass(3, workloads.SWEEP_SMOKE, run.OUT_DIR,
                             tracer=tracer)
    finally:
        tracer.uninstall()
    after = _snapshot(modules)
    assert all(after[0][t] is before[0][t] for t in before[0])
    assert all(after[1][c] is before[1][c] for c in before[1])
    assert tracer.summary()["linalg.power"]["calls"] > 0


def test_missing_name_is_reported_absent():
    modules = workloads.traced_modules()
    targets = SPAN_TARGETS + (("linalg.gone", "linalg", "hpd_power_v0"),
                              ("means.gone", "nomodule", "sinch"))
    before = _snapshot(modules)
    tracer = Tracer()
    tracer.install(modules, span_targets=targets)
    tracer.uninstall()
    assert tracer.absent == ["linalg.gone (linalg.hpd_power_v0)",
                             "means.gone (nomodule.sinch)"]
    after = _snapshot(modules)
    assert all(after[0][t] is before[0][t] for t in before[0])


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 3 and summary["outer"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"])
    assert list(tracer.parent) == [-1, 0, 0, 0]


def test_accept_fraction_follows_the_fuzzer_rule():
    # budget 6: two random restarts, then four candidates of which the
    # first and third lower the best margin
    margins = [(0, 1.0), (0, 0.5), (0, 0.4), (0, 0.45), (0, 0.1), (0, 0.1)]
    assert run.accept_fraction(margins, 6) == 0.5


def test_best_of_passes_takes_each_tasks_fastest_repeat():
    passes = [workloads.PassResult(1.0, 10, task_s=[0.3, 0.5]),
              workloads.PassResult(0.9, 10, task_s=[0.4, 0.4])]
    best, outside = run.best_of_passes(passes)
    assert best == [0.3, 0.4]
    assert outside == pytest.approx(0.1)
    values, _ = run.end_to_end_metrics(passes, [0.2, 0.1, 0.3])
    assert values["ops_per_s"] == pytest.approx(10 / 0.8)
    assert values["setup_s"] == 0.2
    # a task cut into pieces takes each piece's fastest repeat
    assert run.best_task_time([[0.1, 0.3], [0.2, 0.2]]) == pytest.approx(0.3)
    assert run.best_task_time([[0.1, 0.3], [0.35]]) == 0.35


@pytest.mark.parametrize("name", ["sweep", "fuzz"])
def test_pieces_add_up_to_task_times(name):
    spec = workloads.WORKLOADS[name]
    result = spec.run(3, spec.smoke, run.OUT_DIR, None, None)
    assert len(result.piece_s) == len(result.task_s) > 0
    for pieces, total in zip(result.piece_s, result.task_s):
        assert len(pieces) > 1
        assert sum(pieces) == pytest.approx(total)


def test_setup_runs_spread_over_the_whole_run():
    assert run.setup_gaps(1, 3) == [2, 1]
    gaps = run.setup_gaps(60, 21)
    assert len(gaps) == 61 and sum(gaps) == 21 and max(gaps) == 1
    assert gaps[0] == gaps[-1] == 1


def _smoke_report():
    size = workloads.SWEEP_SMOKE
    rc, report, _ = workloads.sweep_report(3, size, run.OUT_DIR)
    assert rc == 0
    reference = {"cases": {c["id"]: {"minMargin": c["minMargin"],
                                     "steps": list(c["steps"])}
                           for c in report["cases"]}}
    return size, rc, report, reference


def test_perturbed_reference_margin_counts_as_failed():
    size, rc, report, reference = _smoke_report()
    assert workloads.check_sweep(rc, report, size, reference) == (0, [])
    reference["cases"]["eq1.3"]["steps"][1] += 1e-12
    failed, errors = workloads.check_sweep(rc, report, size, reference)
    assert failed == len(size["dims"]) * size["samples"]
    assert errors == ["eq1.3: minima differ from the reference"]


def test_non_finite_margin_counts_as_failed():
    size, rc, report, _ = _smoke_report()
    report["cases"][0]["steps"][0] = float("nan")
    failed, _ = workloads.check_sweep(rc, report, size)
    assert failed == len(size["dims"]) * size["samples"]


def test_reference_applies_only_at_master_seed_full_size():
    assert workloads.sweep_reference(3, workloads.SWEEP_FULL) is None
    assert workloads.sweep_reference(workloads.MASTER_SEED,
                                     workloads.SWEEP_SMOKE) is None
    ref = workloads.sweep_reference(workloads.MASTER_SEED,
                                    workloads.SWEEP_FULL)
    assert len(ref["cases"]) == 24


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
