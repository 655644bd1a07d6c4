"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
output.
"""

import numpy as np
import pytest

from meanforge import inequalities as iq
from meanforge.dmap import DMap, KernelSpec
from meanforge.linalg import (HpdMatrix, hermitian_eig, random_complex,
                              random_hpd)
from meanforge.means import (heinz, heinz_nu_average, heron, integral_mean)

import product_oracle as oracle

MASTER_SEED = 20240801


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _scalar(value: float) -> HpdMatrix:
    return HpdMatrix.from_matrix(np.array([[value]], dtype=complex))


def test_criterion_1_soundness_sweep(criterion_1_report):
    # one sweep, shared with the reference-minima test
    report = criterion_1_report
    assert (report.seed, report.dims, report.samples, report.tolerance) == (
        MASTER_SEED, [1, 2, 3, 4, 5, 6], 200, 1e-9)
    worst = min(c.min_margin for c in report.cases)
    _report("criterion 1: soundness sweep",
            report.total_violations == 0 and report.elapsed_seconds <= 60.0,
            f"violations={report.total_violations} "
            f"worst normalized margin={worst:.3e} "
            f"elapsed={report.elapsed_seconds:.1f}s")


def test_criterion_2_scalar_anchors():
    a4, b1 = _scalar(4.0), _scalar(1.0)
    one = np.array([[1.0 + 0j]])
    checks = [
        ("heinz nu=1/4", heinz(a4, one, b1, 0.25)[0, 0].real,
         2.1213203436),
        ("heron alpha=1/2", heron(a4, one, b1, 0.5)[0, 0].real, 2.25),
        ("integral mean", integral_mean(a4, one, b1)[0, 0].real,
         3.0 / np.log(4.0)),
        # recomputed via a 1e6-node quadrature oracle before freezing
        ("nu average [3/8,5/8]",
         heinz_nu_average(a4, one, b1, 3 / 8, 5 / 8)[0, 0].real,
         0.5025061192164565),
    ]
    ok = all(abs(got - want) <= 1e-10 for _, got, want in checks)
    detail = "; ".join(f"{n}={got:.10f}" for n, got, _ in checks)
    _report("criterion 2: scalar anchors", ok, detail)


def test_criterion_3_oracle_equivalences():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst_cosh = worst_sinch = worst_quad = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        a, b = random_hpd(dim, rng), random_hpd(dim, rng)
        x = random_complex(dim, rng)
        frame = DMap(a, b)
        for nu in np.linspace(0.0, 1.0, 11):
            # both the cosh kernel and the Heinz mean against direct
            # A^nu X B^(1-nu) products
            want = oracle.heinz(a, x, b, nu)
            for got in (frame.apply(KernelSpec("coshScaled",
                                               {"c": 2 * nu - 1}), x),
                        heinz(a, x, b, nu)):
                err = np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want))
                worst_cosh = max(worst_cosh, err)
        # the sinch kernel and the integral mean against Simpson quadrature
        # of direct A^nu X B^(1-nu) products
        quad = oracle.integral_mean(a, x, b)
        err = (np.linalg.norm(frame.apply(KernelSpec("sinch"), x) - quad)
               / (1.0 + np.linalg.norm(quad)))
        worst_sinch = max(worst_sinch, err)
        im = integral_mean(a, x, b)
        err = np.linalg.norm(quad - im) / (1.0 + np.linalg.norm(im))
        worst_quad = max(worst_quad, err)
    ok = worst_cosh <= 1e-10 and worst_sinch <= 1e-10 and worst_quad <= 1e-8
    _report("criterion 3: oracle equivalences", ok,
            f"cosh/heinz={worst_cosh:.2e} sinch/integral={worst_sinch:.2e} "
            f"simpson={worst_quad:.2e}")


def test_criterion_4_proposition_contractivity():
    from meanforge.dmap import contractivity_check
    worst = -np.inf
    dims = [2, 3, 4, 5, 6]
    # the registry's sampled-contractivity cases and their kernel families
    for fi, (cid, kind) in enumerate(iq._PROP_KINDS.items()):
        sampler = iq.get_case(cid).sampler
        for draw in range(50):
            ss = np.random.SeedSequence(MASTER_SEED + 2, spawn_key=(fi, draw))
            rng = np.random.default_rng(ss)
            spec = KernelSpec(kind, sampler(rng))
            dim = dims[draw % len(dims)]
            a, b = random_hpd(dim, rng), random_hpd(dim, rng)
            ratio, _ = contractivity_check(spec, a, b, 50, rng)
            worst = max(worst, ratio)
    _report("criterion 4: kernel contractivity", worst <= 1.0 + 1e-9,
            f"max ratio={worst:.12f}")


def test_criterion_5_range_sharpness():
    rng = np.random.default_rng(MASTER_SEED + 3)
    finding = iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5},
                      1000, rng, dim=1)
    ok = finding.margin <= -2.0 and finding.evaluations <= 1000
    _report("criterion 5: range sharpness fuzz", ok,
            f"margin={finding.margin:.4g} evals={finding.evaluations}")


def test_criterion_6_integral_average_constant():
    a4, b1 = _scalar(4.0), _scalar(1.0)
    one = np.array([[1.0 + 0j]])
    avg = heinz_nu_average(a4, one, b1, 3 / 8, 5 / 8)[0, 0].real
    bound = 0.25 * heron(a4, one, b1, 0.5)[0, 0].real
    inst = iq.InstanceTriple(a4, b1, one)
    margins = iq.evaluate(iq.get_case("avg-14"), inst, {"alpha": 0.5})
    ok = (avg <= bound and abs(avg - 0.5025061192164565) <= 1e-7
          and abs(bound - 0.5625) <= 1e-12 and margins[0][0] > 0)
    _report("criterion 6: integral-average constant", ok,
            f"{avg:.5f} <= {bound:.5f}")


def test_criterion_7_alpha_monotonicity():
    rng = np.random.default_rng(MASTER_SEED + 4)
    grid = np.round(np.arange(0.5, 10.001, 0.1), 10)
    small = np.round(np.arange(0.0, 0.501, 0.1), 10)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        a, b = random_hpd(dim, rng), random_hpd(dim, rng)
        x = random_complex(dim, rng)
        svs = np.array([np.cumsum(
            np.abs(np.linalg.svd(heron(a, x, b, al), compute_uv=False)))
            for al in grid])
        if not np.all(np.diff(svs, axis=0) >= -1e-10):
            ok = False
            break
        sv_small = np.array([np.cumsum(
            np.abs(np.linalg.svd(heron(a, x, b, al), compute_uv=False)))
            for al in small])
        if not np.all(sv_small.max(axis=0) <= sv_small[-1] + 1e-10):
            ok = False
            break
    _report("criterion 7: alpha monotonicity", ok)


def test_criterion_8_linear_algebra_floor():
    rng = np.random.default_rng(MASTER_SEED + 5)
    worst_recon = worst_unit = 0.0
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        g = random_complex(dim, rng)
        m = g + g.conj().T
        w, v = hermitian_eig(m)
        scale = max(np.linalg.norm(m), 1e-30)
        worst_recon = max(worst_recon,
                          np.linalg.norm((v * w) @ v.conj().T - m) / scale)
        worst_unit = max(worst_unit,
                         np.abs(v.conj().T @ v - np.eye(dim)).max())
    ok = worst_recon <= 1e-10 and worst_unit <= 1e-10
    _report("criterion 8: eigendecomposition floor", ok,
            f"reconstruction={worst_recon:.2e} unitarity={worst_unit:.2e}")
