"""Heinz and Heron operator means, their p-parameter generalizations,
and closed-form integral averages, as kernel grids in the joint
eigenframe.

Each ``*_grid`` function returns the entrywise kernel K(a_i, b_j) of a
mean on a :class:`Frame` (a single triple or a stack); parameters may be
numbers or per-sample arrays that broadcast against the grid.  The
matrix-valued functions take pre-decomposed :class:`HpdMatrix` operands
and rotate K o Xt back: U_A (K o U_A* X U_B) U_B*.
"""

from __future__ import annotations

import numpy as np

from .dmap import KernelSpec, kernel_eval, sinch
from .errors import BadIntervalError
from .linalg import Frame, HpdMatrix, frame_apply


def geo_grid(f: Frame) -> np.ndarray:
    """sqrt(a b), the kernel of A^(1/2) X B^(1/2)."""
    return f.power(0.5, 0.5)


def p_sum_grid(f: Frame, nu, p) -> np.ndarray:
    """a^nu b^(p-nu) + a^(p-nu) b^nu."""
    return f.power(nu, p - nu) + f.power(p - nu, nu)


def p_diff_grid(f: Frame, nu, p) -> np.ndarray:
    """a^nu b^(p-nu) - a^(p-nu) b^nu."""
    return f.power(nu, p - nu) - f.power(p - nu, nu)


def heinz_grid(f: Frame, nu) -> np.ndarray:
    """(a^nu b^(1-nu) + a^(1-nu) b^nu) / 2."""
    return 0.5 * p_sum_grid(f, nu, 1.0)


def heron_grid(f: Frame, alpha) -> np.ndarray:
    """(1-alpha) sqrt(a b) + alpha (a + b)/2."""
    return (1.0 - alpha) * geo_grid(f) + alpha * 0.5 * (f.a + f.b)


def integral_grid(f: Frame) -> np.ndarray:
    """The scalar logarithmic mean sqrt(a b) sinh(d)/d."""
    return geo_grid(f) * sinch(f.d)


def nu_average_grid(f: Frame, lo: float, hi: float) -> np.ndarray:
    """The Heinz kernel averaged over nu in [lo, hi]."""
    if not lo < hi:
        raise BadIntervalError(f"need lo < hi, got [{lo}, {hi}]")
    spec = KernelSpec("heinzAverage", {"lo": lo, "hi": hi})
    return geo_grid(f) * kernel_eval(spec, f.d)


def heinz(a: HpdMatrix, x: np.ndarray, b: HpdMatrix, nu: float) -> np.ndarray:
    """Heinz mean (A^nu X B^(1-nu) + A^(1-nu) X B^nu) / 2."""
    return frame_apply(heinz_grid, a, x, b, nu)


def heron(a: HpdMatrix, x: np.ndarray, b: HpdMatrix, alpha: float) -> np.ndarray:
    """Heron mean (1-alpha) A^(1/2) X B^(1/2) + alpha (AX + XB)/2."""
    return frame_apply(heron_grid, a, x, b, alpha)


def heinz_p_sum(a: HpdMatrix, x: np.ndarray, b: HpdMatrix,
                nu: float, p: float) -> np.ndarray:
    """A^nu X B^(p-nu) + A^(p-nu) X B^nu."""
    return frame_apply(p_sum_grid, a, x, b, nu, p)


def heinz_p_diff(a: HpdMatrix, x: np.ndarray, b: HpdMatrix,
                 nu: float, p: float) -> np.ndarray:
    """A^nu X B^(p-nu) - A^(p-nu) X B^nu."""
    return frame_apply(p_diff_grid, a, x, b, nu, p)


def integral_mean(a: HpdMatrix, x: np.ndarray, b: HpdMatrix) -> np.ndarray:
    """The integral of A^nu X B^(1-nu) over nu in [0, 1], in closed form.

    Entrywise in the joint eigenbases this is multiplication by the
    scalar logarithmic mean of the eigenvalue pair.
    """
    return frame_apply(integral_grid, a, x, b)


def heinz_nu_average(a: HpdMatrix, x: np.ndarray, b: HpdMatrix,
                     lo: float, hi: float) -> np.ndarray:
    """The integral of the Heinz mean H_nu over nu in [lo, hi].

    Closed form from the antiderivative of cosh((2 nu - 1) d): the
    entrywise kernel is sqrt(a b) * (c2 sinch(c2 d) - c1 sinch(c1 d)) / 2
    with d = (log a - log b)/2, c1 = 2 lo - 1, c2 = 2 hi - 1.
    """
    return frame_apply(nu_average_grid, a, x, b, lo, hi)
