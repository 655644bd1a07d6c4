"""Singular-value based norms.

A claim of the form "|||L||| <= |||R||| for every unitarily invariant
norm" holds iff it holds for every Ky Fan norm, which is why the suite
compares cumulative singular value sums (``inequalities.step_margins``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadExponentError, BadOrderError
from .linalg import svd_values


def schatten(m: np.ndarray, p: float) -> float:
    """Schatten p-norm; p = inf gives the operator norm."""
    if not (p >= 1.0):
        raise BadExponentError(f"Schatten exponent must be >= 1, got {p}")
    s = svd_values(m)
    if math.isinf(p):
        return float(s[0])
    if p == 1.0:
        return float(np.sum(s))
    if p == 2.0:
        return float(np.sqrt(np.sum(s * s)))
    return float(np.sum(s ** p) ** (1.0 / p))


def ky_fan(m: np.ndarray, k: int) -> float:
    """Sum of the k largest singular values."""
    n = m.shape[0]
    if not (1 <= k <= n):
        raise BadOrderError(f"Ky Fan order {k} outside [1, {n}]")
    s = svd_values(m)
    return float(np.sum(s[:k]))
