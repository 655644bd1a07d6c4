"""Heinz and Heron operator means, their p-parameter generalizations,
and closed-form integrals over nu.

Entrywise in the joint eigenframe every mean is (a_i b_j)^(p/2) g(d_ij),
d = (log a - log b)/2, with degree p = 1 unless the mean has a p.  The
``*_kernel`` functions are the g, with arguments that broadcast against
d; the integral mean's g is :func:`dmap.sinch`, the integral over nu of
the Heinz mean's is :func:`dmap.heinz_average` and the geometric mean's
is 1.  The matrix-valued means apply them with :func:`frame_apply`.
"""

from __future__ import annotations

import numpy as np

from .dmap import heinz_average, sinch
from .errors import BadIntervalError
from .linalg import HpdMatrix, frame_apply


def heinz_kernel(d, nu):
    """cosh((2 nu - 1) d): (a^nu b^(1-nu) + a^(1-nu) b^nu)/2, degree 1."""
    return np.cosh((2.0 * nu - 1.0) * d)


def heron_kernel(d, alpha):
    """(1-alpha) + alpha cosh(d): (1-alpha) sqrt(a b) + alpha (a+b)/2."""
    return (1.0 - alpha) + alpha * np.cosh(d)


def p_sum_kernel(d, nu, p):
    """2 cosh((2 nu - p) d): a^nu b^(p-nu) + a^(p-nu) b^nu, degree p."""
    return 2.0 * np.cosh((2.0 * nu - p) * d)


def p_diff_kernel(d, nu, p):
    """2 sinh((2 nu - p) d): a^nu b^(p-nu) - a^(p-nu) b^nu, degree p."""
    return 2.0 * np.sinh((2.0 * nu - p) * d)


def heinz(a: HpdMatrix, x: np.ndarray, b: HpdMatrix, nu: float) -> np.ndarray:
    """Heinz mean (A^nu X B^(1-nu) + A^(1-nu) X B^nu) / 2."""
    return frame_apply(heinz_kernel, 1.0, a, x, b, nu)


def heron(a: HpdMatrix, x: np.ndarray, b: HpdMatrix, alpha: float) -> np.ndarray:
    """Heron mean (1-alpha) A^(1/2) X B^(1/2) + alpha (AX + XB)/2."""
    return frame_apply(heron_kernel, 1.0, a, x, b, alpha)


def heinz_p_sum(a: HpdMatrix, x: np.ndarray, b: HpdMatrix,
                nu: float, p: float) -> np.ndarray:
    """A^nu X B^(p-nu) + A^(p-nu) X B^nu."""
    return frame_apply(p_sum_kernel, p, a, x, b, nu, p)


def heinz_p_diff(a: HpdMatrix, x: np.ndarray, b: HpdMatrix,
                 nu: float, p: float) -> np.ndarray:
    """A^nu X B^(p-nu) - A^(p-nu) X B^nu."""
    return frame_apply(p_diff_kernel, p, a, x, b, nu, p)


def integral_mean(a: HpdMatrix, x: np.ndarray, b: HpdMatrix) -> np.ndarray:
    """The integral of A^nu X B^(1-nu) over nu in [0, 1], in closed form:
    the kernel sinh(d)/d, entrywise the scalar logarithmic mean."""
    return frame_apply(sinch, 1.0, a, x, b)


def heinz_nu_average(a: HpdMatrix, x: np.ndarray, b: HpdMatrix,
                     lo: float, hi: float) -> np.ndarray:
    """The integral of the Heinz mean H_nu over nu in [lo, hi], with the
    kernel :func:`dmap.heinz_average`; its average over [lo, hi] is this
    divided by hi - lo."""
    if not lo < hi:
        raise BadIntervalError(f"need lo < hi, got [{lo}, {hi}]")
    return frame_apply(heinz_average, 1.0, a, x, b, lo, hi)
