import numpy as np
import pytest

from meanforge import dmap, inequalities as iq
from meanforge.dmap import (DMap, KernelSpec, contractivity_check,
                            kernel_eval, kernel_in_hypothesis)
from meanforge.errors import (DimMismatchError, PoleError,
                              UnknownParameterError)
from meanforge.linalg import random_complex, random_hpd

import product_oracle as oracle


def test_sinch_limit():
    assert kernel_eval(KernelSpec("sinch"), 0.0) == pytest.approx(1.0)
    assert kernel_eval(KernelSpec("sinch"), 1e-6) == pytest.approx(
        np.sinh(1e-6) / 1e-6, rel=1e-14)


def test_sinh_ratio_limit_at_zero():
    spec = KernelSpec("sinhRatioT", {"r": 0.7, "s1": 1.5, "s2": 0.8,
                                     "t": 0.4})
    expected = (1.0 + 0.4) / (1.5 + 0.4 * 0.8)
    assert kernel_eval(spec, 0.0) == pytest.approx(expected, rel=1e-12)


def test_cosh_ratio_scalar_anchor():
    spec = KernelSpec("coshRatioT", {"r": 0.0, "s1": 1.0, "s2": 1.0,
                                     "t": 1.0})
    assert kernel_eval(spec, 1.0) == pytest.approx(1.0 / np.cosh(1.0),
                                                   abs=1e-10)
    assert float(kernel_eval(spec, 1.0)) == pytest.approx(0.64805, abs=1e-5)


def test_pole_error_on_identically_zero_denominator():
    spec = KernelSpec("sinhComboRatio", {"r": 0.5, "rp": 0.5, "s1": 1.0,
                                         "s2": -1.0, "alpha": 0.5,
                                         "beta": 0.5})
    with pytest.raises(PoleError):
        kernel_eval(spec, 0.3)


@pytest.mark.parametrize("kind", ["coshRatioT", "coshComboRatio",
                                  "sinhRatioT", "sinhComboRatio"])
def test_rational_kernels_do_not_overflow(kind):
    # cosh and sinh overflow past |x| = 710; with every exponent 1 the
    # ratio is identically 1
    names = dmap.KERNEL_PARAMS[kind]
    params = {n: 0.5 if n in ("alpha", "beta") else 1.0 for n in names}
    values = kernel_eval(KernelSpec(kind, params), [-800.0, 700.0, 800.0])
    assert values.tolist() == [1.0, 1.0, 1.0]


def test_cosh_ratio_far_out_matches_closed_form():
    # 1.5 cosh(400) / (cosh(800) + 0.5 cosh(400)), about 2.9e-174
    spec = KernelSpec("coshRatioT", {"r": 0.5, "s1": 1.0, "s2": 0.5,
                                     "t": 0.5})
    expected = 1.5 * np.exp(-400.0) / (1.0 + 0.5 * np.exp(-400.0))
    assert kernel_eval(spec, 800.0) == pytest.approx(expected, rel=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        KernelSpec("noSuchKernel")


def test_kernel_spec_checks_parameter_names():
    part1 = {"r": 0.25, "s1": 0.5, "s2": 0.25, "t": 1.0}
    with pytest.raises(UnknownParameterError):
        KernelSpec("coshRatioT", {**part1, "tt": 5.0})
    with pytest.raises(UnknownParameterError):
        KernelSpec("coshRatioT", {k: part1[k] for k in ("r", "s1", "s2")})
    rng = np.random.default_rng(0)
    for case_id, kind in iq._PROP_KINDS.items():
        KernelSpec(kind, iq.get_case(case_id).sampler(rng))


def test_identity_kernel_gives_base():
    rng = np.random.default_rng(0)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    x = random_complex(4, rng)
    spec = KernelSpec("constant", {"value": 1.0})
    assert np.allclose(DMap(a, b).apply(spec, x), oracle.geo(a, x, b),
                       atol=1e-12)


def test_cosh_kernel_matches_heinz_scalar():
    from meanforge.linalg import HpdMatrix
    a = HpdMatrix.from_matrix(np.array([[4.0]], dtype=complex))
    b = HpdMatrix.from_matrix(np.array([[1.0]], dtype=complex))
    x = np.array([[1.0 + 0j]])
    spec = KernelSpec("coshScaled", {"c": 2 * 0.25 - 1.0})
    assert DMap(a, b).apply(spec, x)[0, 0].real == pytest.approx(
        2.1213203436, abs=1e-10)


def test_cosh_kernel_matches_heinz_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        dim = int(rng.integers(1, 6))
        a, b = random_hpd(dim, rng), random_hpd(dim, rng)
        x = random_complex(dim, rng)
        frame = DMap(a, b)
        for nu in np.linspace(0.0, 1.0, 11):
            spec = KernelSpec("coshScaled", {"c": 2 * nu - 1.0})
            lhs = frame.apply(spec, x)
            rhs = oracle.heinz(a, x, b, nu)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (
                1.0 + np.linalg.norm(rhs))


def test_sinch_kernel_matches_integral_mean():
    rng = np.random.default_rng(2)
    for _ in range(30):
        dim = int(rng.integers(1, 6))
        a, b = random_hpd(dim, rng), random_hpd(dim, rng)
        x = random_complex(dim, rng)
        lhs = DMap(a, b).apply(KernelSpec("sinch"), x)
        rhs = oracle.integral_mean(a, x, b)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (
            1.0 + np.linalg.norm(rhs))


def test_apply_kernel_linear_in_x():
    rng = np.random.default_rng(3)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    x1, x2 = random_complex(4, rng), random_complex(4, rng)
    spec = KernelSpec("coshRatioT", {"r": 0.25, "s1": 0.5, "s2": 0.25,
                                     "t": 1.0})
    frame = DMap(a, b)
    c1, c2 = 1.7 - 0.4j, -0.6 + 2.1j
    lhs = frame.apply(spec, c1 * x1 + c2 * x2)
    rhs = c1 * frame.apply(spec, x1) + c2 * frame.apply(spec, x2)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_apply_kernel_dim_mismatch():
    rng = np.random.default_rng(4)
    with pytest.raises(DimMismatchError):
        DMap(random_hpd(2, rng), random_hpd(2, rng)).apply(
            KernelSpec("sinch"), random_complex(3, rng))


def test_contractivity_matches_one_sample_at_a_time():
    # the stacked check reproduces the per-sample, per-order Ky Fan loop
    rng = np.random.default_rng(9)
    a, b = random_hpd(3, rng), random_hpd(3, rng)
    spec = KernelSpec("coshComboRatio", {"r": 0.2, "rp": -0.3, "s1": 0.9,
                                         "s2": 0.1, "alpha": 0.4,
                                         "beta": 0.7})
    ratio, worst = contractivity_check(spec, a, b, 6, np.random.default_rng(1))
    replay = np.random.default_rng(1)
    frame = DMap(a, b)
    ratios = []
    for _ in range(6):
        x = random_complex(3, replay)
        mapped, base = frame.apply(spec, x), oracle.geo(a, x, b)
        ratios += [(oracle_fan(mapped, k) / oracle_fan(base, k), x)
                   for k in (1, 2, 3)]
    want, want_x = max(ratios, key=lambda r: r[0])
    assert ratio == pytest.approx(want, rel=1e-12)
    assert np.array_equal(worst, want_x)


def oracle_fan(m, k):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)[:k]))


def test_contractivity_identity_kernel():
    rng = np.random.default_rng(5)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    ratio, worst = contractivity_check(
        KernelSpec("constant", {"value": 1.0}), a, b, 20, rng)
    assert ratio == pytest.approx(1.0, abs=1e-10)
    assert worst is not None


def test_contractivity_degenerate_ratio():
    # r = s1 = 1, s2 = 0, t = 0 collapses to the identity kernel
    rng = np.random.default_rng(6)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    spec = KernelSpec("coshRatioT", {"r": 1.0, "s1": 1.0, "s2": 0.0,
                                     "t": 0.0})
    ratio, _ = contractivity_check(spec, a, b, 20, rng)
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_contractivity_part1_in_hypothesis():
    rng = np.random.default_rng(7)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    spec = KernelSpec("coshRatioT", {"r": 0.25, "s1": 0.5, "s2": 0.25,
                                     "t": 1.0})
    assert kernel_in_hypothesis(spec) == {"literal": True, "abs": True}
    ratio, _ = contractivity_check(spec, a, b, 100, rng)
    assert ratio <= 1.0 + 1e-9


def test_hypothesis_readings_differ_for_negative_exponent():
    # literal signed condition admits r far below -(s1+s2)/2; the
    # absolute-value reading does not
    spec = KernelSpec("coshRatioT", {"r": -5.0, "s1": 1.0, "s2": 0.5,
                                     "t": 0.5})
    flags = kernel_in_hypothesis(spec)
    assert flags["literal"] is True
    assert flags["abs"] is False


def test_out_of_hypothesis_kernel_expands():
    rng = np.random.default_rng(8)
    a, b = random_hpd(4, rng, (0.05, 20.0)), random_hpd(4, rng, (0.05, 20.0))
    spec = KernelSpec("coshRatioT", {"r": 3.0, "s1": 1.0, "s2": 0.5,
                                     "t": 0.5})
    assert kernel_in_hypothesis(spec)["abs"] is False
    ratio, _ = contractivity_check(spec, a, b, 50, rng)
    assert ratio > 1.0 + 1e-6
