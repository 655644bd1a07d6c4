"""JSON serialization of instances and verification reports.

Instance files hold {"dim": n, "A": M, "B": M, "X": M}, n an integer
>= 1 and each matrix a row-major list of n^2 [re, im] pairs of finite
numbers.  Python floats round-trip exactly through json, so saved
instances reload bit-faithfully.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NotHermitianError
from .inequalities import InstanceTriple, VerificationReport
from .linalg import HpdMatrix, is_hermitian


def matrix_to_pairs(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def pairs_to_matrix(pairs: list, dim: int, name: str) -> np.ndarray:
    """The matrix of dim^2 row-major [re, im] pairs of finite numbers
    (a string or null is not one), with the bits of complex(re, im);
    else a ValueError naming the matrix."""
    try:
        flat = np.asarray(pairs)
    except ValueError:  # ragged
        flat = np.empty(0)
    if (flat.dtype.kind not in "iuf" or flat.shape != (dim * dim, 2)
            or not np.isfinite(flat).all()):
        raise ValueError(f"{name} must be {dim * dim} [re, im] pairs of "
                         f"finite numbers")
    return flat.astype(float).view(complex).reshape(dim, dim)


def instance_to_dict(inst: InstanceTriple) -> dict:
    return {"dim": inst.dim,
            "A": matrix_to_pairs(inst.a.matrix),
            "B": matrix_to_pairs(inst.b.matrix),
            "X": matrix_to_pairs(inst.x)}


def instance_from_dict(d: dict) -> InstanceTriple:
    """The instance of a loaded file, or a ValueError that names what is
    wrong with it (NotHermitianError for a matrix A or B)."""
    if not isinstance(d, dict):
        raise ValueError(f"an instance file must be a JSON object, not "
                         f"{type(d).__name__}")
    missing = [key for key in ("dim", "A", "B", "X") if key not in d]
    if missing:
        raise ValueError(f"instance file lacks {', '.join(missing)}")
    dim = d["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, not {dim!r}")
    a, b, x = (pairs_to_matrix(d[name], dim, name) for name in "ABX")
    for name, m in (("A", a), ("B", b)):
        if not is_hermitian(m):
            raise NotHermitianError(f"loaded {name} is not Hermitian")
    return InstanceTriple(HpdMatrix.from_matrix(a), HpdMatrix.from_matrix(b), x)


def save_instance(inst: InstanceTriple, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=1))


def load_instance(path) -> InstanceTriple:
    return instance_from_dict(json.loads(Path(path).read_text()))


def save_report(report: VerificationReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=1))


def load_report(path) -> VerificationReport:
    return VerificationReport.from_dict(json.loads(Path(path).read_text()))
