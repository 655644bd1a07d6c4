"""The program names that ``benchmarks/`` wraps or patches still resolve.

The benchmark's tracer and timed workloads find functions by name from
outside the program, and its own tests run apart from this suite, so a
deleted or renamed name would otherwise go unnoticed here.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _import_benchmark_modules():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return (importlib.import_module("tracer"),
                importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(BENCHMARKS))


tracer, workloads = _import_benchmark_modules()

# the inequalities functions that workloads.py patches to time its tasks
PATCHED = ("_run_case_dim", "make_instance", "step_margins",
           "_instance_margin")

TARGETS = [*tracer.SPAN_TARGETS, *tracer.COUNT_TARGETS,
           *(("workloads.patch", "inequalities", name) for name in PATCHED)]


@pytest.mark.parametrize("layer, module, path", TARGETS,
                         ids=[f"{m}.{p}" for _, m, p in TARGETS])
def test_benchmark_name_resolves(layer, module, path):
    modules = workloads.traced_modules()
    assert tracer.resolve(modules[module], path) is not None, layer


def test_contractivity_samplers_are_callable():
    # the contractivity workload draws each family's kernel parameters
    inequalities = workloads.traced_modules()["inequalities"]
    for cid in inequalities._PROP_KINDS:
        assert callable(inequalities.get_case(cid).sampler), cid


def test_case_builders_are_callable():
    # the tracer wraps every registry case's builder
    inequalities = workloads.traced_modules()["inequalities"]
    for cid, case in inequalities.REGISTRY.items():
        assert callable(case.builder), cid


def test_sweep_cells_are_cut_at_step_margins(tmp_path):
    # the sweep workload times each (case, dim) cell in pieces that end
    # at its step_margins calls, from inside _run_case_dim
    inequalities = workloads.traced_modules()["inequalities"]
    size = workloads.SWEEP_SMOKE
    result = workloads.sweep_pass(workloads.MASTER_SEED, size, tmp_path)
    assert (result.failed, result.errors) == (0, [])
    assert len(result.task_s) == len(size["dims"]) * len(
        inequalities.CASE_IDS)
    assert len(result.piece_s) == len(result.task_s)
    for cell, pieces in zip(result.task_s, result.piece_s):
        assert len(pieces) > 1
        assert sum(pieces) == pytest.approx(cell, rel=1e-9, abs=1e-12)


def test_fuzz_probes_are_cut_at_instance_margin():
    # the fuzz workload times each probe in pieces that end at its
    # _instance_margin calls, one per scored block of points
    size = workloads.FUZZ_SMOKE
    result = workloads.fuzz_pass(workloads.MASTER_SEED, size)
    assert (result.failed, result.errors) == (0, [])
    assert len(result.task_s) == len(workloads.fuzz_probes(size["dims"]))
    assert len(result.piece_s) == len(result.task_s)
    for probe, pieces in zip(result.task_s, result.piece_s):
        assert len(pieces) > 1
        assert sum(pieces) == pytest.approx(probe, rel=1e-9, abs=1e-12)


def test_tracer_records_each_cell_once(tmp_path):
    # the tracer's cell hook reads the case id and dim from
    # _run_case_dim's task and records nothing when the layout changes
    inequalities = workloads.traced_modules()["inequalities"]
    size = workloads.SWEEP_SMOKE
    t = tracer.Tracer()
    t.install(workloads.traced_modules())
    try:
        workloads.sweep_pass(workloads.MASTER_SEED, size, tmp_path)
    finally:
        t.uninstall()
    assert [(cid, dim) for _, cid, dim in t.cells] == [
        (cid, dim) for dim in size["dims"] for cid in inequalities.CASE_IDS]
