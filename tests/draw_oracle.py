"""Suite samples rebuilt one stream at a time, independent of the
package's draw passes.

A (case, dim, sample) stream is
``default_rng(SeedSequence(seed, spawn_key=(case, dim, sample)))``.  It
draws A's log-eigenvalues with ``uniform``, A's Gaussians, B's
log-eigenvalues, B's Gaussians and X's Gaussians, each set of Gaussians
one ``standard_normal((2, n, n))`` call (real parts, then imaginary),
and then the case's parameters through its sampler.  Each unitary comes
from the QR of its own instance, and the frame is Xt = U_A* X U_B with
the d and log_geo grids of the eigenvalues.
"""

import numpy as np

from meanforge.linalg import gaussian_unitary


def _complex(g):
    return (g[0] + 1j * g[1]) / np.sqrt(2.0)


def sample_draws(seed: int, case_index: int, dim: int, sample: int,
                 condition_range, sampler) -> tuple:
    """(eigenvalues of A, U_A, eigenvalues of B, U_B, X, params) of one
    suite sample, the eigenvalues unsorted, as its stream draws them."""
    rng = np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(case_index, dim, sample)))
    lo, hi = np.log(condition_range[0]), np.log(condition_range[1])
    la = rng.uniform(lo, hi, size=dim)
    ga = rng.standard_normal((2, dim, dim))
    lb = rng.uniform(lo, hi, size=dim)
    gb = rng.standard_normal((2, dim, dim))
    gx = rng.standard_normal((2, dim, dim))
    params = sampler(rng)
    return (np.exp(la), gaussian_unitary(_complex(ga)), np.exp(lb),
            gaussian_unitary(_complex(gb)), _complex(gx), params)


def sample_frame(seed: int, case_index: int, dim: int, sample: int,
                 condition_range, sampler) -> tuple:
    """(d, log_geo, xt, params) of one suite sample."""
    ea, ua, eb, ub, x, params = sample_draws(seed, case_index, dim, sample,
                                             condition_range, sampler)
    xt = ua.conj().T @ x @ ub
    # the logs of the eigenvalues, as a frame takes them
    la, lb = np.log(ea)[:, None], np.log(eb)[None, :]
    return 0.5 * (la - lb), 0.5 * (la + lb), xt, params
