import warnings

import mpmath
import numpy as np
import pytest

from meanforge.errors import NotHermitianError, NumericalFailureError
from meanforge.linalg import (DEFAULT_CONDITION_RANGE, Frame, HpdMatrix,
                              _Generated, complex_gaussian, gaussian_unitary,
                              hermitian_eig, is_hermitian, random_complex,
                              random_hpd, random_unitary, spawned_streams,
                              svd_values)


def test_eig_identity():
    w, v = hermitian_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ v.conj().T, np.eye(2))


def test_eig_real_symmetric():
    w, _ = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [3.0, 1.0], atol=1e-12)


def test_eig_pauli_type():
    m = np.array([[0, -1j], [1j, 0]])
    w, v = hermitian_eig(m)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)
    assert np.allclose((v * w) @ v.conj().T, m, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_hermitian_at_zero_and_nan():
    # a zero matrix passes 0 <= rtol * 0 with no case of its own, a NaN
    # entry fails every comparison; the answer is a plain bool
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    answers = [is_hermitian(m) for m in (np.zeros((3, 3)), nan, np.eye(2))]
    assert answers == [True, False, True]
    assert [type(a) for a in answers] == [bool] * 3


# 1 + 1j off the diagonal, so that m* differs from the transpose
SKEW_OFF = np.array([[1.0, 1.0 + 1j], [-1.0 - 1j, 1.0]])
HERMITIAN = np.array([[1.0, 1.0 + 1j], [1.0 - 1j, 2.0]])


@pytest.mark.parametrize("scale", [1.0, 1e-320, 1e-170, 1e-20, 1e170])
def test_is_hermitian_at_any_scale(scale):
    # the norms are taken on m over its largest entry modulus: at 1e-170
    # the squares underflow and at 1e170 they overflow, which made the
    # plain norms compare 0 <= 0 and inf <= inf, a pass for any m
    assert not is_hermitian(scale * SKEW_OFF)
    assert not is_hermitian(scale * np.array([[1.0, 1.0], [-1.0, 1.0]]))
    assert is_hermitian(scale * HERMITIAN)


def test_is_hermitian_of_a_scaled_copy():
    # the answer for [[1, 1], [-1, 1]] 1e-170 is its copies' at 1e+-150
    m = np.array([[1e-170, 1e-170], [-1e-170, 1e-170]])
    assert [is_hermitian(m * c) for c in (1.0, 1e-150, 1e150)] == [False] * 3
    # a complex NaN entry is refused without a warning, as before the
    # scaling: a complex division by NaN would warn
    assert not is_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]], complex))


def test_svd_zero_matrix():
    assert np.allclose(svd_values(np.zeros((3, 3))), 0.0)


def test_svd_diagonal_with_sign():
    assert np.allclose(svd_values(np.diag([3.0, -1.0])), [3.0, 1.0])


def test_svd_nilpotent():
    assert np.allclose(svd_values(np.array([[0.0, 2.0], [0.0, 0.0]])),
                       [2.0, 0.0])


def test_svd_accurate_on_graded_spectrum():
    # sigma = 1, 1e-3, ..., 1e-11: going through eigvalsh(M* M) squares
    # the condition number and loses the small values entirely
    rng = np.random.default_rng(13)
    sigma = np.array([1.0, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11])
    u, w = random_unitary(6, rng), random_unitary(6, rng)
    m = (u * sigma) @ w
    err = np.abs(np.cumsum(svd_values(m)) - np.cumsum(sigma)).max()
    assert err <= 1e-14 * sigma[0]


def test_svd_values_of_a_stack_match_one_by_one():
    rng = np.random.default_rng(14)
    stack = random_complex(4, rng, 7)
    assert np.array_equal(svd_values(stack),
                          np.array([svd_values(m) for m in stack]))


def test_svd_values_of_non_finite_matrices_are_nan():
    stack = np.stack([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]],
                      [[1.0, np.nan], [0.0, 1.0]]])
    values = svd_values(stack)
    assert np.array_equal(values[0], [1.0, 1.0])
    assert np.isnan(values[1:]).all()


def fail_lapack(monkeypatch, name="svd"):
    """Every np.linalg.<name> call raises, as one does when LAPACK fails
    to converge."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")

    monkeypatch.setattr(np.linalg, name, fail)


@pytest.mark.parametrize("name, call", [
    ("eigh", lambda: hermitian_eig(np.eye(2))),
    ("qr", lambda: random_unitary(3, np.random.default_rng(0))),
    ("qr", lambda: random_hpd(2, np.random.default_rng(0)).eigenvectors),
], ids=["eigh", "qr-unitary", "qr-hpd"])
def test_failed_factorization_is_a_numerical_failure(monkeypatch, name,
                                                     call):
    fail_lapack(monkeypatch, name)
    with pytest.raises(NumericalFailureError, match="did not converge"):
        call()


@pytest.mark.parametrize("shape", [(4, 3, 3), (3, 5), (2, 4, 6)])
def test_svd_values_of_a_failed_lapack_call_are_nan(monkeypatch, shape):
    # NaN rows of min(rows, cols) values for the stack LAPACK fails on;
    # orders 1 and 2 take the closed forms and never reach it
    rng = np.random.default_rng(3)
    m = rng.standard_normal(shape) + 0j
    small = random_complex(2, rng, 4)
    fail_lapack(monkeypatch)
    values = svd_values(m)
    assert values.shape == (*shape[:-2], min(shape[-2:]))
    assert np.isnan(values).all()
    assert np.isfinite(svd_values(small)).all()


EPS = np.finfo(float).eps


def small_stacks(rng) -> list:
    """Named stacks of 2 x 2 matrices that are hard for a closed form:
    graded columns, sigma1 ~ sigma2, rank deficient and zero matrices,
    magnitudes 1e+-300, and complex phases on every entry."""
    def gaussian(k):
        return random_complex(2, rng, k)

    graded = gaussian(20) * 10.0 ** rng.uniform(-12.0, 12.0, (20, 1, 2))
    # unitaries times 3, nudged by 1e-9: sigma1 - sigma2 ~ 1e-9
    close = 3.0 * np.linalg.qr(gaussian(20))[0] + 1e-9 * gaussian(20)
    u, v = gaussian(20)[..., 0], gaussian(20)[..., 0]
    rank_one = u[..., :, None] * v[..., None, :]
    near_singular = rank_one + 1e-12 * gaussian(20)
    huge = gaussian(20) * 10.0 ** rng.uniform(250.0, 300.0, (20, 1, 1))
    tiny = gaussian(20) * 10.0 ** -rng.uniform(250.0, 300.0, (20, 1, 1))
    phases = (rng.standard_normal((20, 2, 1)) * rng.standard_normal(
        (20, 1, 2))) * np.exp(2j * np.pi * rng.uniform(size=(20, 2, 2)))
    return [("graded", graded), ("close", close), ("rank-one", rank_one),
            ("near-singular", near_singular), ("huge", huge),
            ("tiny", tiny), ("phases", phases),
            ("real", gaussian(20).real)]


def mp_singular_values(m) -> np.ndarray:
    """Singular values of one matrix at 50 digits, descending."""
    with mpmath.workdps(50):
        s = mpmath.svd_c(mpmath.matrix(m.tolist()), compute_uv=False)
        return np.array(sorted((float(x) for x in s), reverse=True))


@pytest.mark.parametrize("stack", [
    pytest.param(stack, id=name)
    for name, stack in small_stacks(np.random.default_rng(21))])
def test_closed_form_ky_fan_sums_match_two_oracles(stack):
    # every Ky Fan sum within 8 eps sigma1 of a 50-digit SVD and of
    # LAPACK's, with 0 <= sigma2 <= sigma1
    values = svd_values(stack)
    assert values.shape == (len(stack), 2)
    assert (values[:, 1] >= 0.0).all() and (values[:, 1] <= values[:, 0]).all()
    lapack = np.linalg.svd(stack, compute_uv=False)
    for m, got, other in zip(stack, values, lapack):
        want = mp_singular_values(m)
        for oracle in (want, other):
            err = np.abs(np.cumsum(got) - np.cumsum(oracle)).max()
            assert err <= 8 * EPS * want[0], m


def test_closed_form_of_order_one_is_the_modulus():
    rng = np.random.default_rng(22)
    m = random_complex(1, rng, 30) * 10.0 ** rng.uniform(-300, 300,
                                                         (30, 1, 1))
    assert np.array_equal(svd_values(m), np.abs(m[..., 0]))
    lapack = np.linalg.svd(m, compute_uv=False)
    assert np.all(np.abs(svd_values(m) - lapack) <= 2 * EPS * lapack)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_of_zero_and_subnormal_matrices(n):
    assert np.array_equal(svd_values(np.zeros((3, n, n), complex)),
                          np.zeros((3, n)))
    assert np.array_equal(svd_values(np.zeros((n, n))), np.zeros(n))
    # entries below the least normal double, and a subnormal one alone
    sub = np.full((n, n), 3e-310 - 1e-310j)
    sub[0, 0] = 5e-324
    want = np.linalg.svd(sub, compute_uv=False)
    assert np.all(np.abs(svd_values(sub) - want) <= 8 * EPS * want[0])
    lone = np.zeros((n, n))
    lone[-1, 0] = 5e-324
    assert np.array_equal(svd_values(lone), [5e-324] + [0.0] * (n - 1))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 1)])
def test_closed_form_of_non_finite_matrices_is_nan(n, bad):
    # NaN rows for the matrices with a NaN or inf entry, the others as
    # alone; no warning is raised
    stack = random_complex(n, np.random.default_rng(23), 4)
    stack[1, 0, n - 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = svd_values(stack)
    assert np.isnan(values[1]).all()
    keep = [0, 2, 3]
    assert np.array_equal(values[keep], svd_values(stack[keep]))


def test_closed_form_takes_any_leading_shape():
    rng = np.random.default_rng(24)
    for n in (1, 2):
        m = random_complex(n, rng, 30).reshape(2, 5, 3, n, n)
        values = svd_values(m)
        assert values.shape == (2, 5, 3, n)
        assert np.array_equal(values.reshape(30, n),
                              svd_values(m.reshape(30, n, n)))
        assert np.array_equal(values[1, 2, 0], svd_values(m[1, 2, 0]))


def test_only_other_shapes_reach_lapack(monkeypatch):
    # square stacks of order 1 and 2 never call np.linalg.svd; every
    # other shape gets its values bit for bit
    lapack, shapes = np.linalg.svd, []

    def guarded(m, *args, **kwargs):
        shapes.append(np.shape(m)[-2:])
        if np.shape(m)[-1] == np.shape(m)[-2] <= 2:
            raise AssertionError(f"order {np.shape(m)[-1]} reached LAPACK")
        return lapack(m, *args, **kwargs)

    rng = np.random.default_rng(25)
    others = [random_complex(3, rng, 6), random_complex(2, rng, 6)[..., :1, :],
              rng.standard_normal((6, 2, 3)), rng.standard_normal((3, 3))]
    want = [lapack(m, compute_uv=False) for m in others]
    monkeypatch.setattr(np.linalg, "svd", guarded)
    for n in (1, 2):
        svd_values(random_complex(n, rng, 6))
        svd_values(random_complex(n, rng))
    assert shapes == []
    for m, values in zip(others, want):
        assert np.array_equal(svd_values(m), values)
    assert shapes == [(3, 3), (1, 2), (2, 3), (3, 3)]


def test_hpd_power_endpoints():
    rng = np.random.default_rng(3)
    h = random_hpd(4, rng)
    assert np.allclose(h.power(0.0), np.eye(4))
    assert np.allclose(h.power(1.0), h.matrix, atol=1e-10)


def test_hpd_power_diagonal_sqrt():
    h = HpdMatrix.from_matrix(np.diag([4.0, 9.0]).astype(complex))
    assert np.allclose(h.power(0.5), np.diag([2.0, 3.0]))


@pytest.mark.parametrize("m", [[[1.0, 0.0], [0.0, 0.0]],
                               [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["zero-eigenvalue", "negative-eigenvalue"])
def test_from_matrix_refuses_a_hermitian_matrix_not_positive_definite(m):
    with pytest.raises(ValueError):
        HpdMatrix.from_matrix(np.array(m, dtype=complex))


def test_from_matrix_keeps_the_matrix_it_was_given():
    # a complex m is kept as the very array given, and power(1) returns
    # it; a real m is kept as its complex copy, bit for bit
    rng = np.random.default_rng(6)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = g @ g.conj().T + np.eye(3)
    h = HpdMatrix.from_matrix(m)
    assert h.matrix is m
    assert h.power(1.0) is h.matrix
    assert h.eigenvectors is h.eigenvectors
    real = m.real + m.real.T
    h = HpdMatrix.from_matrix(real)
    assert h.matrix.dtype == complex
    assert h.matrix.tobytes() == real.astype(complex).tobytes()
    assert h.eigenvectors is h.eigenvectors


def test_hpd_power_addition():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = random_hpd(5, rng, (0.1, 10.0))
        s, t = rng.uniform(-1, 1, size=2)
        lhs = h.power(s + t)
        rhs = h.power(s) @ h.power(t)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)


def test_eig_of_power_is_powered_spectrum():
    rng = np.random.default_rng(5)
    h = random_hpd(6, rng)
    w, _ = hermitian_eig(h.power(0.3))
    expected = np.sort(h.eigenvalues ** 0.3)[::-1]
    assert np.allclose(w, expected, rtol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_from_spectrum_needs_finite_positive_eigenvalues(bad):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        HpdMatrix.from_spectrum([bad, 1.0], np.eye(2))


def test_from_spectrum_sorts_descending_keeping_tie_order():
    rng = np.random.default_rng(3)
    w = np.array([1.0, 3.0, 2.0, 3.0, 0.5, 2.0])
    v = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = HpdMatrix.from_spectrum(w, v)
    # a stable sort: tied eigenvalues keep the order of their columns
    order = [1, 3, 2, 5, 0, 4]
    assert np.array_equal(m.eigenvalues, w[order])
    assert np.array_equal(m.eigenvectors, v[:, order])


def test_random_hpd_forced_spectrum():
    rng = np.random.default_rng(0)
    h = random_hpd(1, rng, (2.0, 2.0))
    assert np.allclose(h.matrix, [[2.0]])


def test_random_hpd_deterministic():
    a = random_hpd(4, np.random.default_rng(11))
    b = random_hpd(4, np.random.default_rng(11))
    assert np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("condition_range", [(0.05, 20.0), (1e-3, 1e3)])
def test_random_hpd_draws_as_generator_uniform(condition_range):
    for seed in range(5):
        got = random_hpd(4, np.random.default_rng(seed), condition_range)
        twin = np.random.default_rng(seed)
        eigs = np.exp(twin.uniform(*np.log(condition_range), size=4))
        want = HpdMatrix.from_spectrum(eigs, random_unitary(4, twin))
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()


@pytest.mark.parametrize("dim", range(1, 7))
def test_random_hpd_forms_its_unitary_on_first_read(monkeypatch, dim):
    # the draw keeps the real normals and runs no QR; the first read of
    # eigenvectors forms the unitary of the replayed draw bit for bit,
    # and every later read returns the same array
    for seed in range(5):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        with monkeypatch.context() as patch:
            fail_lapack(patch, "qr")
            h = random_hpd(dim, rng)
        eigs = np.exp(twin.uniform(*np.log(DEFAULT_CONDITION_RANGE),
                                   size=dim))
        g = twin.standard_normal((2, dim, dim))
        assert rng.random() == twin.random()
        want = HpdMatrix.from_spectrum(
            eigs, gaussian_unitary(complex_gaussian(g)))
        assert h.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert h.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert h.eigenvectors is h.eigenvectors
        assert h.matrix is h.matrix


def test_random_hpd_spectrum_in_range():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_hpd(3, rng, (0.01, 100.0))
        assert np.all(h.eigenvalues >= 0.01) and np.all(h.eigenvalues <= 100.0)


def test_random_complex_deterministic_and_distinct():
    a = random_complex(5, np.random.default_rng(7))
    b = random_complex(5, np.random.default_rng(7))
    c = random_complex(5, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))


def test_reconstruction_and_unitarity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        g = random_complex(dim, rng)
        m = g + g.conj().T
        w, v = hermitian_eig(m)
        scale = max(np.linalg.norm(m), 1e-30)
        assert np.linalg.norm((v * w) @ v.conj().T - m) <= 1e-10 * scale
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10


def test_svd_unitary_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        m = random_complex(dim, rng)
        u = random_unitary(dim, rng)
        w = random_unitary(dim, rng)
        assert np.allclose(svd_values(u @ m @ w), svd_values(m),
                           rtol=1e-9, atol=1e-9)


# seeds of one to six 32-bit words: the key words' hash calls start
# later from the fifth seed word on
@pytest.mark.parametrize("seed", [0, 20240801, 2**40 + 7, 2**128 - 1, 2**128,
                                  2**130 + 12345, 2**160 + 1])
def test_spawned_states_match_seed_sequence(seed):
    # (case, dim, sample) keys, and keys of one and of five words, with
    # the edges 0 and 2^32 - 1 of a word
    draw = np.random.default_rng(seed % 1000)
    triples = np.stack([draw.integers(0, 24, 60), draw.integers(1, 7, 60),
                        draw.integers(0, 2**32, 60)], axis=1)
    for keys in (triples, *(draw.integers(0, 2**32, (20, w)) for w in (1, 5))):
        keys[:2] = [[0], [2**32 - 1]]
        for key, rng in zip(keys.tolist(), spawned_streams(seed, keys)):
            want = np.random.PCG64(np.random.SeedSequence(seed,
                                                          spawn_key=key))
            assert rng.bit_generator.state == want.state, key


@pytest.mark.parametrize("key", [(2**32, 1, 0), (3, 1, 2**40),
                                 (0, 2**70, 1), (-1, 1, 0)])
def test_spawned_states_reject_keys_outside_a_word(key):
    # SeedSequence would split such a value into 32-bit words
    with pytest.raises(ValueError):
        spawned_streams(7, [key])


def test_spawned_streams_draw_independently():
    # each key's stream is its own Generator: draws interleaved across
    # two streams are those of two default_rng streams
    keys = [(3, 4, 0), (3, 4, 1)]
    first, second = spawned_streams(90210, keys)
    want = [np.random.default_rng(np.random.SeedSequence(90210, spawn_key=k))
            for k in keys]
    for _ in range(3):
        for rng, twin in zip((first, second), want):
            assert np.array_equal(rng.standard_normal(5),
                                  twin.standard_normal(5))


def test_generated_words_refuse_other_requests():
    # PCG64 asks for 4 uint64 words; any other request cannot be met
    words = _Generated(np.arange(4, dtype=np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    for n_words, dtype in ((8, np.uint32), (2, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)


def test_spawned_streams_replay_default_rng():
    keys = [(5, 2, 0), (5, 2, 1), (23, 6, 199)]
    for key, rng in zip(keys, spawned_streams(20240801, keys)):
        want = np.random.default_rng(np.random.SeedSequence(
            20240801, spawn_key=key))
        assert np.array_equal(rng.uniform(size=3), want.uniform(size=3))
        assert np.array_equal(rng.standard_normal((2, 4, 4)),
                              want.standard_normal((2, 4, 4)))
        assert rng.integers(0, 2**31) == want.integers(0, 2**31)
