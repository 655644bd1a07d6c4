import numpy as np
import pytest

from meanforge.errors import NotHermitianError
from meanforge.linalg import (Frame, HpdMatrix, hermitian_eig, random_complex,
                              random_hpd, random_unitary, spawned_states,
                              spawned_streams, svd_values)


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


def test_hpd_power_endpoints():
    rng = np.random.default_rng(3)
    h = random_hpd(4, rng)
    assert np.allclose(h.power(0.0), np.eye(4))
    assert np.allclose(h.power(1.0), h.matrix, atol=1e-10)


def test_hpd_power_diagonal_sqrt():
    h = HpdMatrix.from_matrix(np.diag([4.0, 9.0]).astype(complex))
    assert np.allclose(h.power(0.5), np.diag([2.0, 3.0]))


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
        for key, (state, inc) in zip(keys.tolist(),
                                     spawned_states(seed, keys)):
            want = np.random.PCG64(np.random.SeedSequence(seed,
                                                          spawn_key=key))
            assert want.state["state"] == {"state": state, "inc": inc}, key


@pytest.mark.parametrize("key", [(2**32, 1, 0), (3, 1, 2**40),
                                 (0, 2**70, 1), (-1, 1, 0)])
def test_spawned_states_reject_keys_outside_a_word(key):
    # SeedSequence would split such a value into 32-bit words
    with pytest.raises(ValueError):
        spawned_states(7, [key])


def test_spawned_streams_replay_default_rng():
    keys = [(5, 2, 0), (5, 2, 1), (23, 6, 199)]
    for key, rng in zip(keys, spawned_streams(20240801, keys)):
        want = np.random.default_rng(np.random.SeedSequence(
            20240801, spawn_key=key))
        assert np.array_equal(rng.uniform(size=3), want.uniform(size=3))
        assert np.array_equal(rng.standard_normal((2, 4, 4)),
                              want.standard_normal((2, 4, 4)))
        assert rng.integers(0, 2**31) == want.integers(0, 2**31)


@pytest.mark.parametrize("index", [slice(2, 5), slice(0, 7), 3])
def test_frame_slice_is_the_frame_of_the_slice(index):
    rng = np.random.default_rng(8)
    a, b = np.exp(rng.uniform(-3.0, 3.0, (2, 7, 4)))
    xt = random_complex(4, rng, count=7)
    part, built = Frame(a, b, xt)[index], Frame(a[index], b[index], xt[index])
    assert np.array_equal(part.d, built.d)
    assert np.array_equal(part.log_geo, built.log_geo)
    assert np.array_equal(part.xt, built.xt)
    assert np.array_equal(part.scaled(1.3), built.scaled(1.3))
