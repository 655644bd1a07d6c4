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


def sample_frame(seed: int, case_index: int, dim: int, sample: int,
                 condition_range, sampler) -> tuple:
    """(d, log_geo, xt, params) of one suite sample."""
    rng = np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(case_index, dim, sample)))
    lo, hi = np.log(condition_range[0]), np.log(condition_range[1])
    la = rng.uniform(lo, hi, size=dim)
    ga = rng.standard_normal((2, dim, dim))
    lb = rng.uniform(lo, hi, size=dim)
    gb = rng.standard_normal((2, dim, dim))
    gx = rng.standard_normal((2, dim, dim))
    params = sampler(rng)
    ua, ub = gaussian_unitary(_complex(ga)), gaussian_unitary(_complex(gb))
    xt = ua.conj().T @ _complex(gx) @ ub
    # the logs of the eigenvalues, as a frame takes them
    la, lb = np.log(np.exp(la))[:, None], np.log(np.exp(lb))[None, :]
    return 0.5 * (la - lb), 0.5 * (la + lb), xt, params
