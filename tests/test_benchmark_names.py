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
