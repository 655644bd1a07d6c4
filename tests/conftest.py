"""Fixtures shared by the test modules."""

import json
from pathlib import Path

import pytest

from meanforge import inequalities as iq

REFERENCE = (Path(__file__).resolve().parents[1] / "benchmarks"
             / "reference_sweep_20240801.json")
# criterion 1: every case over dims 1-6, 200 samples a cell
CRITERION_1 = {"seed": 20240801, "dims": [1, 2, 3, 4, 5, 6], "samples": 200}


@pytest.fixture(scope="session")
def criterion_1_report():
    """The criterion-1 sweep at tolerance 1e-9, run once for the tests
    that read it: the soundness gate, and the minima recorded in the
    reference file at the same config."""
    ref = json.loads(REFERENCE.read_text())
    assert {key: ref[key] for key in CRITERION_1} == CRITERION_1
    return iq.run_suite(CRITERION_1["dims"], CRITERION_1["samples"],
                        seed=CRITERION_1["seed"], tolerance=1e-9)
