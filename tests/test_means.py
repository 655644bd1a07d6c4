import numpy as np
import pytest

from meanforge.errors import BadIntervalError, DimMismatchError
from meanforge.linalg import HpdMatrix, random_complex, random_hpd
from meanforge.means import (heinz, heinz_nu_average, heinz_p_diff,
                             heinz_p_sum, heron, integral_mean)
from meanforge.norms import ky_fan

import product_oracle as oracle


def scalar_hpd(value: float) -> HpdMatrix:
    return HpdMatrix.from_matrix(np.array([[value]], dtype=complex))


ONE = np.array([[1.0 + 0.0j]])
A4 = scalar_hpd(4.0)
B1 = scalar_hpd(1.0)


def test_heinz_scalar_anchor():
    assert heinz(A4, ONE, B1, 0.25)[0, 0].real == pytest.approx(
        2.1213203436, abs=1e-10)


def test_heinz_symmetry_point_and_endpoint():
    rng = np.random.default_rng(0)
    a, b = random_hpd(3, rng), random_hpd(3, rng)
    x = random_complex(3, rng)
    assert np.allclose(heinz(a, x, b, 0.5), oracle.geo(a, x, b))
    assert np.allclose(heinz(a, x, b, 0.0),
                       0.5 * (x @ b.matrix + a.matrix @ x))


def test_heinz_nu_symmetry():
    rng = np.random.default_rng(1)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    x = random_complex(4, rng)
    for nu in (0.1, 0.3, 0.45):
        lhs, rhs = heinz(a, x, b, nu), heinz(a, x, b, 1.0 - nu)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)


def test_heron_scalar_anchor_and_endpoints():
    assert heron(A4, ONE, B1, 0.5)[0, 0].real == pytest.approx(2.25, abs=1e-10)
    rng = np.random.default_rng(2)
    a, b = random_hpd(3, rng), random_hpd(3, rng)
    x = random_complex(3, rng)
    assert np.allclose(heron(a, x, b, 0.0), oracle.geo(a, x, b))
    assert np.allclose(heron(a, x, b, 1.0),
                       0.5 * (a.matrix @ x + x @ b.matrix))


def test_integral_mean_scalar_anchor():
    assert integral_mean(A4, ONE, B1)[0, 0].real == pytest.approx(
        3.0 / np.log(4.0), abs=1e-10)


def test_integral_mean_equal_operands():
    rng = np.random.default_rng(3)
    x = random_complex(3, rng)
    c = 2.7
    ci = HpdMatrix.from_matrix(c * np.eye(3, dtype=complex))
    assert np.allclose(integral_mean(ci, x, ci), c * x, atol=1e-12)


def test_integral_mean_mixed_spectrum():
    a = HpdMatrix.from_matrix(np.diag([1.0, np.e ** 2]).astype(complex))
    b = HpdMatrix.from_matrix(np.eye(2, dtype=complex))
    x = np.ones((2, 2), dtype=complex)
    result = integral_mean(a, x, b)
    expected = (np.e ** 2 - 1.0) / 2.0
    assert np.allclose(result[1, :], expected, atol=1e-10)


def log_mean(a: float, b: float) -> float:
    """The scalar logarithmic mean, as the 1x1 integral mean."""
    return integral_mean(scalar_hpd(a), ONE, scalar_hpd(b))[0, 0].real


def test_log_mean_near_coincident():
    # sinh(d)/d of a tiny d, a plain quotient with no series near 0,
    # agrees with the exact formula as b approaches a; eps a power of two
    # so a*eps and b are exact; log1p keeps the reference stable
    for eps in (2.0 ** -23, 2.0 ** -20, 2.0 ** -17, 2.0 ** -13):
        a = 2.0
        b = a * (1.0 + eps)
        exact = (a * eps) / np.log1p(eps)
        assert log_mean(a, b) == pytest.approx(exact, rel=1e-12)
    assert log_mean(3.0, 3.0) == pytest.approx(3.0, rel=1e-14)


def test_integral_mean_matches_simpson():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        a, b = random_hpd(dim, rng), random_hpd(dim, rng)
        x = random_complex(dim, rng)
        quad = oracle.integral_mean(a, x, b)
        closed = integral_mean(a, x, b)
        assert np.linalg.norm(quad - closed) <= 1e-8 * np.linalg.norm(closed)


def test_means_match_direct_products():
    rng = np.random.default_rng(13)
    for _ in range(30):
        dim = int(rng.integers(1, 6))
        a, b = random_hpd(dim, rng), random_hpd(dim, rng)
        x = random_complex(dim, rng)
        nu, alpha, p = rng.uniform(-1, 2), rng.uniform(0, 5), rng.uniform(0, 3)
        pairs = [
            (heinz(a, x, b, nu), oracle.heinz(a, x, b, nu)),
            (heron(a, x, b, alpha), oracle.heron(a, x, b, alpha)),
            (heinz_p_sum(a, x, b, nu, p),
             oracle.product(a, x, b, nu, p - nu)
             + oracle.product(a, x, b, p - nu, nu)),
            (heinz_p_diff(a, x, b, nu, p),
             oracle.product(a, x, b, nu, p - nu)
             - oracle.product(a, x, b, p - nu, nu)),
        ]
        for got, want in pairs:
            assert np.linalg.norm(got - want) <= 1e-10 * (
                1.0 + np.linalg.norm(want))


def test_heinz_p_sum_reduces_to_heinz():
    rng = np.random.default_rng(5)
    a, b = random_hpd(3, rng), random_hpd(3, rng)
    x = random_complex(3, rng)
    assert np.allclose(heinz_p_sum(a, x, b, 0.3, 1.0),
                       2.0 * heinz(a, x, b, 0.3))


def test_heinz_p_sum_scalar_anchor():
    assert heinz_p_sum(A4, ONE, B1, 0.5, 2.0)[0, 0].real == pytest.approx(
        10.0, abs=1e-10)


def test_heinz_p_diff_vanishes_at_midpoint():
    rng = np.random.default_rng(6)
    a, b = random_hpd(3, rng), random_hpd(3, rng)
    x = random_complex(3, rng)
    assert np.allclose(heinz_p_diff(a, x, b, 0.7, 1.4), 0.0, atol=1e-12)


def test_nu_average_scalar_anchor():
    # frozen from a 1e6-node quadrature of the scalar Heinz mean
    expected = 0.5025061192164565
    got = heinz_nu_average(A4, ONE, B1, 3 / 8, 5 / 8)[0, 0].real
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx(2.0 * np.sinh(np.log(2) / 4) / np.log(2),
                                abs=1e-14)


def test_nu_average_full_interval_is_integral_mean():
    rng = np.random.default_rng(7)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    x = random_complex(4, rng)
    assert np.allclose(heinz_nu_average(a, x, b, 0.0, 1.0),
                       integral_mean(a, x, b), atol=1e-12)


def test_nu_average_identity_operands():
    rng = np.random.default_rng(8)
    x = random_complex(3, rng)
    eye = HpdMatrix.from_matrix(np.eye(3, dtype=complex))
    assert np.allclose(heinz_nu_average(eye, x, eye, 0.2, 0.7), 0.5 * x,
                       atol=1e-12)


def test_nu_average_matches_simpson():
    rng = np.random.default_rng(9)
    for _ in range(10):
        dim = int(rng.integers(1, 5))
        a, b = random_hpd(dim, rng), random_hpd(dim, rng)
        x = random_complex(dim, rng)
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
        if hi - lo < 0.05:
            continue
        quad = oracle.simpson(lambda nu: oracle.heinz(a, x, b, nu), lo, hi)
        closed = heinz_nu_average(a, x, b, lo, hi)
        assert np.linalg.norm(quad - closed) <= 1e-8 * (
            1.0 + np.linalg.norm(closed))


def test_nu_average_bad_interval():
    with pytest.raises(BadIntervalError):
        heinz_nu_average(A4, ONE, B1, 0.7, 0.3)


def test_dim_mismatch():
    rng = np.random.default_rng(10)
    with pytest.raises(DimMismatchError):
        heinz(random_hpd(2, rng), random_complex(3, rng),
              random_hpd(2, rng), 0.3)


def test_heinz_heron_chain_dominance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        a, b = random_hpd(dim, rng), random_hpd(dim, rng)
        x = random_complex(dim, rng)
        nu = rng.uniform(0.25, 0.75)
        alpha = rng.uniform(0.5, 5.0)
        h = heinz(a, x, b, nu)
        assert oracle.fan_dominates(oracle.geo(a, x, b), h)
        assert oracle.fan_dominates(h, heron(a, x, b, alpha))


def test_p_sum_norm_profile_shape():
    rng = np.random.default_rng(12)
    a, b = random_hpd(4, rng), random_hpd(4, rng)
    x = random_complex(4, rng)
    p = 1.3
    grid = np.linspace(p / 2 - 1, p / 2 + 1, 41)
    for k in range(1, 5):
        vals = np.array([ky_fan(heinz_p_sum(a, x, b, nu, p), k)
                         for nu in grid])
        slack = 1e-9 * (1.0 + vals.max())
        assert np.all(np.diff(vals[:21]) <= slack)
        assert np.all(np.diff(vals[20:]) >= -slack)
        assert np.all(vals[:-2] + vals[2:] - 2 * vals[1:-1] >= -slack)
