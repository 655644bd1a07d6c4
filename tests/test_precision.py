"""Precision certificate for the criterion-1 margins nearest the tolerance.

Each worst witness of the criterion-1 run (seed 20240801, dims 1-6, 200
samples) whose normalized margin sits within a decade of the 1e-9
tolerance is rebuilt from its counter-based seed and its worst step is
evaluated again at 50 digits with mpmath: eigenvectors of the dense A and
B, the means' scalar kernels and the singular values all come from
mpmath, not from the package's engine.
"""

import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from meanforge import inequalities as iq
from meanforge.linalg import Frame

MASTER_SEED = 20240801
REFERENCE = (Path(__file__).resolve().parents[1] / "benchmarks"
             / "reference_sweep_20240801.json")

# (case, dim, sample, step) of the worst witnesses, from the report's
# worstSeed and the step that holds the case's minimum
WITNESSES = [("prop2.1-1", 1, 11, 0), ("eq1.3", 2, 79, 0),
             ("eq1.4-chain", 1, 10, 0), ("f-nu-shape", 1, 61, 19)]


def _step(cid, step, p):
    """(lhs, rhs) of one step as lists of (weight, grid); a grid maps the
    eigenvalues (a, b) to the scalar kernel of the mean."""
    mp = mpmath.mp

    def geo(a, b):
        return mp.sqrt(a * b)

    def psum(nu, pw):
        return lambda a, b: (a ** nu * b ** (pw - nu)
                             + a ** (pw - nu) * b ** nu)

    if cid == "prop2.1-1":
        r, s1, s2, t = (mp.mpf(p[k]) for k in ("r", "s1", "s2", "t"))

        def kernel(a, b):
            d = (mp.log(a) - mp.log(b)) / 2
            return ((1 + t) * mp.cosh(r * d)
                    / (mp.cosh(s1 * d) + t * mp.cosh(s2 * d)) * geo(a, b))
        return [(1, kernel)], [(1, geo)]
    if cid == "eq1.3" and step == 0:
        nu = mp.mpf(p["nu"])
        return [(1, geo)], [(mp.mpf(1) / 2, psum(nu, 1))]
    if cid == "eq1.4-chain" and step == 0:
        def log_mean(a, b):
            return a if a == b else (a - b) / (mp.log(a) - mp.log(b))
        return [(1, geo)], [(1, log_mean)]
    if cid == "f-nu-shape" and step < iq.F_NU_GRID_POINTS // 2:
        # left of p/2 the profile is nonincreasing: node step+1 <= node step
        pw = mp.mpf(p["p"])
        nodes = [pw / 2 - 1 + mp.mpf(2 * i) / (iq.F_NU_GRID_POINTS - 1)
                 for i in (step + 1, step)]
        return [(1, psum(nodes[0], pw))], [(1, psum(nodes[1], pw))]
    raise ValueError(f"no 50-digit step for {cid} step {step}")


def _exact_normalized_margin(cid, step, params, inst):
    """min over Ky Fan orders of (right - left) / (1 + trace norm of the
    right side), at 50 digits."""
    mp = mpmath.mp
    with mp.workdps(50):
        ea, ua = mp.eighe(mp.matrix(inst.a.matrix.tolist()))
        eb, ub = mp.eighe(mp.matrix(inst.b.matrix.tolist()))
        xt = ua.H * mp.matrix(inst.x.tolist()) * ub
        n = inst.dim

        def ky_fan(weighted):
            total = [mp.mpf(0)] * n
            for c, grid in weighted:
                term = mp.matrix(n, n)
                for i in range(n):
                    for j in range(n):
                        term[i, j] = grid(ea[i], eb[j]) * xt[i, j]
                values = sorted(mp.svd_c(term, compute_uv=False),
                                reverse=True)
                partial = mp.mpf(0)
                for k in range(n):
                    partial += values[k]
                    total[k] += c * partial
            return total

        lhs, rhs = _step(cid, step, params)
        left, right = ky_fan(lhs), ky_fan(rhs)
        return min(r - l for l, r in zip(left, right)) / (1 + right[-1])


@pytest.mark.parametrize("cid, dim, sample, step", WITNESSES,
                         ids=[w[0] for w in WITNESSES])
def test_worst_witness_holds_at_50_digits(cid, dim, sample, step):
    reference = json.loads(REFERENCE.read_text())["cases"][cid]
    case = iq.get_case(cid)
    inst, rng = iq.make_instance(MASTER_SEED, iq.CASE_IDS.index(cid), dim,
                                 sample)
    params = case.sampler(rng)
    margins, scales = iq._margins(case, Frame.of(inst.a, inst.x, inst.b),
                                  params)
    got = float(np.min(margins[step])) / float(scales[step])
    # this witness is the case's criterion-1 minimum ...
    assert got == pytest.approx(reference["minMargin"], abs=1e-13)
    assert 1e-9 < got < 1e-7
    # ... and its sign and size hold at 50 digits
    exact = _exact_normalized_margin(cid, step, params, inst)
    assert exact > 0
    assert abs(got - float(exact)) <= 1e-13, (got, exact)
