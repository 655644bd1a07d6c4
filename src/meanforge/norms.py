"""Singular-value based norms.

A claim of the form "|||L||| <= |||R||| for every unitarily invariant
norm" holds iff it holds for every Ky Fan norm, which is why the suite
compares cumulative singular value sums (``inequalities.step_margins``).
"""

from __future__ import annotations

import numpy as np

from .errors import BadOrderError
from .linalg import svd_values


def ky_fan(m: np.ndarray, k: int) -> float:
    """Sum of the k largest singular values."""
    n = min(np.shape(m)[-2:])
    if not (1 <= k <= n):
        raise BadOrderError(f"Ky Fan order {k} outside [1, {n}]")
    s = svd_values(m)
    return float(np.sum(s[:k]))
