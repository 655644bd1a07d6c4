"""JSON serialization of instances and verification reports.

Instance files hold {"dim": n, "A": M, "B": M, "X": M}, n an integer
>= 1 and each matrix a row-major list of [re, im] pairs.  Python floats
round-trip exactly through json, so saved instances reload
bit-faithfully.
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


def pairs_to_matrix(pairs: list, dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    if flat.size != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


def instance_to_dict(inst: InstanceTriple) -> dict:
    return {"dim": inst.dim,
            "A": matrix_to_pairs(inst.a.matrix),
            "B": matrix_to_pairs(inst.b.matrix),
            "X": matrix_to_pairs(inst.x)}


def instance_from_dict(d: dict) -> InstanceTriple:
    dim = d["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, not {dim!r}")
    a = pairs_to_matrix(d["A"], dim)
    b = pairs_to_matrix(d["B"], dim)
    x = pairs_to_matrix(d["X"], dim)
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
