from functools import reduce

import mpmath
import numpy as np
import pytest

from meanforge import dmap, inequalities as iq
from meanforge.dmap import (DMap, KernelSpec, contractivity_check,
                            kernel_eval, kernel_in_hypothesis)
from meanforge.errors import (BadIntervalError, DimMismatchError,
                              NumericalFailureError, PoleError,
                              UnknownParameterError)
from meanforge.linalg import (Frame, HpdMatrix, random_complex, random_hpd,
                              svd_values)

import product_oracle as oracle
from test_linalg import fail_lapack


def test_sinch_limit():
    assert kernel_eval(KernelSpec("sinch"), 0.0) == pytest.approx(1.0)
    assert kernel_eval(KernelSpec("sinch"), 1e-6) == pytest.approx(
        np.sinh(1e-6) / 1e-6, rel=1e-14)


def test_sinch_is_the_quotient_to_an_ulp_near_zero():
    # sinh(x)/x with no series, against 50-digit mpmath on +-|x| from
    # 1e-300 to 1e-4, and 1 at +-0
    x = np.logspace(-300, -4, 1500)
    x = np.concatenate([x, -x])
    with mpmath.workdps(50):
        for xi, got in zip(x, dmap.sinch(x)):
            want = mpmath.sinh(mpmath.mpf(xi)) / mpmath.mpf(xi)
            assert abs(got - want) <= np.spacing(float(want)), xi
    assert dmap.sinch(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]
    assert dmap.sinch(0.0) == 1.0 and dmap.sinch(-0.0) == 1.0


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_spec_names_a_non_finite_sample(bad):
    s2 = np.array([0.25, 0.5, bad, 0.75])[:, None, None]
    params = {"r": 0.25, "s1": np.full((4, 1, 1), 1.0), "s2": s2, "t": 1.0}
    with pytest.raises(ValueError, match=r"parameter s2="):
        KernelSpec("coshRatioT", params)
    # the first bad parameter in the spec's order is named
    with pytest.raises(ValueError, match=r"parameter r="):
        KernelSpec("coshRatioT", {**params, "r": np.float64(bad)})
    with pytest.raises(ValueError, match=r"parameter t="):
        KernelSpec("coshRatioT", {**params, "s2": 0.5, "t": bad})
    # and among numbers only
    with pytest.raises(ValueError, match=r"parameter s1="):
        KernelSpec("coshRatioT", {"r": 0.25, "s1": bad, "s2": 0.5, "t": bad})


def _termwise(spec, d):
    """The rational kernels one exponential term at a time: the sums
    0 + c0 T0 + c1 T1 over e^-m scaled terms, m the largest |e d|."""
    sinh, combo = dmap.RATIONAL_FAMILIES[spec.kind]
    p = spec.params
    if combo:
        num = [(p["alpha"], p["r"]), (1.0 - p["alpha"], p["rp"])]
        den = [(p["beta"], p["s1"]), (1.0 - p["beta"], p["s2"])]
    else:
        num = [(1.0 + p["t"], p["r"])]
        den = [(1.0, p["s1"]), (p["t"], p["s2"])]
    if sinh:
        den = [(c * e, e) for c, e in den]
    term = dmap._sinch_scaled if sinh else dmap._cosh_scaled
    d = np.asarray(d, dtype=float)
    m = np.abs(d) * reduce(np.maximum, [np.abs(e) for _, e in num + den])
    num, den = (sum(c * term(e * d, m) for c, e in side)
                for side in (num, den))
    return num / den


@pytest.mark.parametrize("case_id", sorted(iq._PROP_KINDS))
def test_rational_kernels_match_termwise_reference(case_id):
    kind, sampler = iq._PROP_KINDS[case_id], iq.get_case(case_id).sampler
    rng = np.random.default_rng(11)
    for _ in range(50):
        # numbers on one (4, 4) grid, with d = 0 on its diagonal
        spec = KernelSpec(kind, sampler(rng))
        d = rng.normal(scale=3.0, size=(4, 4))
        np.fill_diagonal(d, 0.0)
        assert np.array_equal(kernel_eval(spec, d), _termwise(spec, d))
        assert np.array_equal(kernel_eval(spec, 0.0), _termwise(spec, 0.0))
        # per-sample (5, 1, 1) arrays on a (5, 3, 3) stack
        draws = [sampler(rng) for _ in range(5)]
        spec = KernelSpec(kind, {k: np.array([p[k] for p in draws])[
            :, None, None] for k in draws[0]})
        d = rng.normal(scale=3.0, size=(5, 3, 3))
        d[:, 1, 1] = 0.0
        assert np.array_equal(kernel_eval(spec, d), _termwise(spec, d))


def test_heinz_average_spec_needs_lo_below_hi():
    # as heinz_nu_average does; per-sample arrays are checked entrywise
    for lo, hi in [(0.6, 0.4), (0.5, 0.5), (0.2, np.array([0.3, 0.1]))]:
        with pytest.raises(BadIntervalError):
            KernelSpec("heinzAverage", {"lo": lo, "hi": hi})
    KernelSpec("heinzAverage", {"lo": 0.2, "hi": np.array([0.3, 0.4])})


def test_identity_kernel_gives_base():
    rng = np.random.default_rng(0)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    x = random_complex(4, rng)
    spec = KernelSpec("constant", {"value": 1.0})
    assert np.allclose(DMap(a, b).apply(spec, x), oracle.geo(a, x, b),
                       atol=1e-12)


def test_cosh_kernel_matches_heinz_scalar():
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
    with pytest.raises(DimMismatchError):
        contractivity_check(KernelSpec("sinch"), random_hpd(2, rng),
                            random_hpd(3, rng), 5, rng)


def test_contractivity_matches_one_sample_at_a_time():
    # the stacked check reproduces the per-sample, per-order Ky Fan loop;
    # its draws are Xt, so the loop rotates each back to X = U_A Xt U_B*
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
        xt = random_complex(3, replay)
        x = a.eigenvectors @ xt @ b.eigenvectors.conj().T
        mapped, base = frame.apply(spec, x), oracle.geo(a, x, b)
        ratios += [(oracle_fan(mapped, k) / oracle_fan(base, k), x)
                   for k in (1, 2, 3)]
    want, want_x = max(ratios, key=lambda r: r[0])
    assert ratio == pytest.approx(want, rel=1e-12)
    assert np.array_equal(worst, want_x)


def test_contractivity_rotates_no_sample(monkeypatch):
    # the samples are scored in the frame; only the worst is rotated back,
    # and its own frame gives the reported ratio again
    rng = np.random.default_rng(10)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    spec = KernelSpec("sinhComboRatio", {"r": 0.9, "rp": -1.2, "s1": 2.1,
                                         "s2": 0.4, "alpha": 0.3,
                                         "beta": 0.8})

    def no_rotation(*args):
        raise AssertionError("a sample was rotated into the frame")

    with monkeypatch.context() as patch:
        patch.setattr(Frame, "of", no_rotation)
        ratio, worst = contractivity_check(spec, a, b, 50, rng)
    frame = Frame.of(a, worst, b)
    base = frame.scaled()
    mapped = kernel_eval(spec, frame.d) * base
    fans = np.cumsum(svd_values(np.array([mapped, base])), axis=-1)
    assert ratio == pytest.approx(np.max(fans[0] / fans[1]), rel=1e-12)


def oracle_fan(m, k):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)[:k]))


def test_contractivity_identity_kernel():
    rng = np.random.default_rng(5)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    ratio, worst = contractivity_check(
        KernelSpec("constant", {"value": 1.0}), a, b, 20, rng)
    assert ratio == pytest.approx(1.0, abs=1e-10)
    assert worst is not None


def test_contractivity_overflow_has_no_worst_sample():
    # cosh(800 d) overflows the grid off the diagonal: a NaN maxRatio is
    # no verdict, so there is neither a ratio nor a witness to return
    a = HpdMatrix.from_spectrum([np.e ** 2, 1.0], np.eye(2))
    with pytest.raises(NumericalFailureError):
        contractivity_check(KernelSpec("coshScaled", {"c": 800.0}), a, a, 5,
                            np.random.default_rng(0))


def test_contractivity_svd_failure_raises(monkeypatch):
    # LAPACK fails on the dim-3 stack: its NaN singular values are no
    # verdict, as an overflowed grid's are
    rng = np.random.default_rng(7)
    a, b = random_hpd(3, rng), random_hpd(3, rng)
    fail_lapack(monkeypatch)
    with pytest.raises(NumericalFailureError):
        contractivity_check(KernelSpec("sinch"), a, b, 5, rng)


def test_contractivity_sample_count_is_an_integer():
    # taken by operator.index: a numpy integer runs as an int does, and
    # a float is a TypeError before the stream is drawn from
    rng = np.random.default_rng(0)
    a, b = random_hpd(2, rng), random_hpd(2, rng)
    ratios = [contractivity_check(KernelSpec("sinch"), a, b, count,
                                  np.random.default_rng(1))[0]
              for count in (3, np.int64(3))]
    assert ratios[0] == ratios[1]
    state = rng.bit_generator.state
    with pytest.raises(TypeError):
        contractivity_check(KernelSpec("sinch"), a, b, 3.0, rng)
    assert rng.bit_generator.state == state


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
