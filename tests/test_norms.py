import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanforge.errors import BadOrderError, DimMismatchError
from meanforge.inequalities import Step, step_margins
from meanforge.linalg import random_complex, random_unitary, svd_values
from meanforge.norms import ky_fan


def fan_margins(lhs, rhs, xt=1.0):
    """Per-order Ky Fan margins of |||lhs o xt||| <= |||rhs o xt||| and
    the comparison's normalization scale."""
    margins, scales = step_margins(np.stack([lhs, rhs]),
                                   [Step([(1.0, [0])], [(1.0, [1])])], xt)
    return margins[0], scales[0]


def test_svd_values_squares_sum_to_entry_sum():
    # the Schatten 2-norm is the Frobenius norm
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_complex(int(rng.integers(1, 7)), rng)
        assert np.sum(svd_values(m) ** 2) == pytest.approx(
            float(np.sum(np.abs(m) ** 2)), rel=1e-10)


def test_ky_fan_values():
    m = np.diag([3.0, 1.0])
    assert ky_fan(m, 1) == pytest.approx(3.0)
    assert ky_fan(m, 2) == pytest.approx(4.0)
    assert ky_fan(np.zeros((4, 4)), 3) == 0.0


def test_ky_fan_rejects_bad_order():
    with pytest.raises(BadOrderError):
        ky_fan(np.eye(2), 3)
    with pytest.raises(BadOrderError):
        ky_fan(np.eye(2), 0)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
def test_ky_fan_order_bounded_by_the_singular_values(shape):
    # a 3 x 2 or 2 x 3 matrix has two singular values: order 3 is not a
    # Ky Fan norm of it, and order 2 is its trace norm
    m = np.arange(6.0).reshape(shape)
    with pytest.raises(BadOrderError):
        ky_fan(m, 3)
    assert ky_fan(m, 2) == pytest.approx(
        np.linalg.svd(m, compute_uv=False).sum(), rel=1e-14)


def test_ky_fan_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        m = random_complex(dim, rng)
        u, w = random_unitary(dim, rng), random_unitary(dim, rng)
        for k in range(1, dim + 1):
            assert ky_fan(u @ m @ w, k) == pytest.approx(
                ky_fan(m, k), rel=1e-9, abs=1e-9)


def test_fan_margins_reflexive():
    m = np.diag([2.0, 1.0])
    margins, scale = fan_margins(m, m)
    assert np.allclose(margins, 0.0)
    assert scale == pytest.approx(4.0)


def test_fan_margins_examples():
    assert np.allclose(fan_margins(np.diag([1.0, 1.0]),
                                   np.diag([2.0, 0.0]))[0], [1.0, 0.0])
    assert np.allclose(fan_margins(np.diag([2.0, 0.0]),
                                   np.diag([1.0, 1.0]))[0], [-1.0, 0.0])


def test_fan_margins_dim_mismatch():
    # 2 x 2 grids on a 3 x 3 Xt, or on a stack of them
    with pytest.raises(DimMismatchError):
        fan_margins(np.eye(2), np.eye(2), np.eye(3))
    with pytest.raises(DimMismatchError):
        fan_margins(np.eye(2), np.eye(2), np.ones((4, 3, 3)))


def test_fan_dominates():
    def dominates(lhs, rhs, tol):
        margins, scale = fan_margins(lhs, rhs)
        return np.min(margins) / scale >= -tol

    assert dominates(np.eye(2), np.eye(2), tol=0.0)
    assert dominates(np.diag([1.0, 1.0]), np.diag([2.0, 0.0]), tol=1e-12)
    assert not dominates(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]),
                         tol=1e-12)


def test_step_margins_weigh_and_share_terms():
    # one SVD per grid of the stack; weights and several right-hand terms
    rng = np.random.default_rng(3)
    a, b = random_complex(3, rng), random_complex(3, rng)
    steps = [Step([(2.0, [0])], [(1.0, [1]), (0.5, [0])]),
             Step([(1.0, [1])], [(3.0, [0])])]
    margins, scales = step_margins(np.stack([a, b]), steps)
    assert margins.shape == (2, 3) and scales.shape == (2,)
    fa = np.array([ky_fan(a, k) for k in (1, 2, 3)])
    fb = np.array([ky_fan(b, k) for k in (1, 2, 3)])
    assert np.allclose(margins[0], fb + 0.5 * fa - 2.0 * fa)
    assert np.allclose(margins[1], 3.0 * fa - fb)
    assert scales[0] == pytest.approx(1.0 + fb[-1] + 0.5 * fa[-1])
    assert scales[1] == pytest.approx(1.0 + 3.0 * fa[-1])


def test_triangle_inequality_per_order():
    rng = np.random.default_rng(2)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        a = random_complex(dim, rng)
        b = random_complex(dim, rng)
        for k in range(1, dim + 1):
            lhs = ky_fan(a + b, k)
            rhs = ky_fan(a, k) + ky_fan(b, k)
            assert lhs <= rhs + 1e-9 * (1.0 + rhs)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), scale=st.floats(1e-3, 1e3))
def test_fan_margins_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    lhs, rhs = random_complex(dim, rng), random_complex(dim, rng)
    base = fan_margins(lhs, rhs)[0]
    scaled = fan_margins(scale * lhs, scale * rhs)[0]
    assert np.allclose(scaled, scale * base, rtol=1e-9, atol=1e-12)
