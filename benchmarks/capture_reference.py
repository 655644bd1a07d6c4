"""Write the sweep reference: per-case and per-step minimum margins of
``meanforge verify`` at the master seed and the criterion-1 config.

    python3 benchmarks/capture_reference.py

Run it on the commit whose results the benchmark should hold later
commits to; the sweep workload compares against the file to 1e-13.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

run.pin_environment()

import workloads  # noqa: E402

run.OUT_DIR.mkdir(exist_ok=True)
rc, report, _ = workloads.sweep_report(
    workloads.MASTER_SEED, workloads.SWEEP_FULL, run.OUT_DIR)
if rc != 0 or report is None:
    sys.exit(f"verify failed with exit code {rc}")
reference = {
    "seed": workloads.MASTER_SEED, **workloads.SWEEP_FULL,
    "commit": run.git_commit(),
    "cases": {c["id"]: {"minMargin": c["minMargin"], "steps": c["steps"]}
              for c in report["cases"]}}
workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
print(f"wrote {workloads.REFERENCE_PATH.name}")
