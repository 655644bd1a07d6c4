"""Direct matrix-product reference for the means, independent of the
package's kernel-grid engine.

Fractional powers come from ``np.linalg.eigh`` of the dense matrices, and
each mean is the sum of products that defines it, e.g. the Heinz mean is
(A^nu X B^(1-nu) + A^(1-nu) X B^nu) / 2.  Operands may be dense arrays or
anything with a ``matrix`` attribute (an ``HpdMatrix``).  Exponents may be
arrays, which give stacks of matrices, one per exponent.
"""

import numpy as np


def _dense(m):
    return np.asarray(getattr(m, "matrix", m), dtype=complex)


def powers(m):
    """t -> M^t for a Hermitian positive definite M, from one eigh."""
    w, v = np.linalg.eigh(_dense(m))
    return lambda t: (v * w ** np.asarray(t)[..., None, None]) @ v.conj().T


def product(a, x, b, s, t):
    """A^s X B^t."""
    return powers(a)(s) @ x @ powers(b)(t)


def geo(a, x, b):
    return product(a, x, b, 0.5, 0.5)


def heinz(a, x, b, nu):
    return 0.5 * (product(a, x, b, nu, 1.0 - nu)
                  + product(a, x, b, 1.0 - nu, nu))


def heron(a, x, b, alpha):
    a, b = _dense(a), _dense(b)
    return (1.0 - alpha) * geo(a, x, b) + alpha * 0.5 * (a @ x + x @ b)


def simpson(f, lo, hi, nodes=1001):
    """Composite Simpson rule for a matrix-valued f on [lo, hi]; f takes
    the array of nodes and returns the stack of its values."""
    xs = np.linspace(lo, hi, nodes)
    vals = f(xs)
    h = (hi - lo) / (nodes - 1)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return h / 3.0 * np.tensordot(weights, vals, axes=(0, 0))


def integral_mean(a, x, b):
    """The integral of A^nu X B^(1-nu) over nu in [0, 1], by Simpson."""
    return simpson(lambda nu: product(a, x, b, nu, 1.0 - nu), 0.0, 1.0)


def fan_dominates(lhs, rhs, tol=1e-9):
    """Every Ky Fan norm of lhs is <= that of rhs, up to tol times
    1 + the trace norm of rhs."""
    sl = np.cumsum(np.linalg.svd(lhs, compute_uv=False))
    sr = np.cumsum(np.linalg.svd(rhs, compute_uv=False))
    return bool(np.min(sr - sl) >= -tol * (1.0 + sr[-1]))
