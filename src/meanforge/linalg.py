"""Dense complex linear algebra: Hermitian eigendecomposition, singular
values, HPD spectral calculus, joint eigenframes and seeded random
instance generation.

Matrices are plain complex numpy arrays, or stacks (..., n, n) where a
docstring says so.  Hermitian positive definite matrices are carried as
:class:`HpdMatrix`, which keeps the eigendecomposition.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatchError, NoConvergenceError, NotHermitianError

HERMITIAN_RTOL = 1e-12
# eigenvalue range of random instances unless a caller gives another
DEFAULT_CONDITION_RANGE = (0.05, 20.0)


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def is_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL) -> bool:
    scale = frobenius(m)
    if scale == 0.0:
        return True
    return frobenius(m - adjoint(m)) <= rtol * scale


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, V) with eigenvalues real and descending and the
    columns of V orthonormal, so that m = V diag(w) V*.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def svd_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or of each matrix in a stack,
    descending along the last axis; NaN for a matrix with a NaN or inf
    entry, which LAPACK rejects.

    Taken from the SVD itself: going through the eigenvalues of m* m
    would square the condition number and lose the small values.
    """
    if np.isfinite(m).all():
        return np.linalg.svd(m, compute_uv=False)
    finite = np.isfinite(m).all(axis=(-2, -1))
    values = np.full(np.shape(m)[:-1], np.nan)
    values[finite] = np.linalg.svd(m[finite], compute_uv=False)
    return values


@dataclass(frozen=True)
class HpdMatrix:
    """Hermitian positive definite matrix with its spectral data.

    eigenvalues are descending and strictly positive; the columns of
    eigenvectors are orthonormal and matrix = V diag(eigenvalues) V*,
    assembled on first use.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _matrix: np.ndarray | None = field(default=None, repr=False,
                                       compare=False)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            v = self.eigenvectors
            m = (v * self.eigenvalues) @ adjoint(v)
            object.__setattr__(self, "_matrix", 0.5 * (m + adjoint(m)))
        return self._matrix

    @property
    def log_eigenvalues(self) -> np.ndarray:
        return np.log(self.eigenvalues)

    @classmethod
    def from_spectrum(cls, eigenvalues, eigenvectors) -> "HpdMatrix":
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(eigenvectors, dtype=complex)
        if np.any(w <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        order = np.argsort(-w, kind="stable")
        return cls(eigenvalues=w[order], eigenvectors=v[:, order])

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "HpdMatrix":
        w, v = hermitian_eig(m)
        if np.any(w <= 0.0):
            raise ValueError("matrix is not positive definite")
        return cls(eigenvalues=w, eigenvectors=v,
                   _matrix=np.asarray(m, dtype=complex))

    def power(self, t: float) -> np.ndarray:
        """Fractional power V diag(lambda^t) V*."""
        if t == 0.0:
            return np.eye(self.dim, dtype=complex)
        if t == 1.0:
            return self.matrix
        w = np.exp(t * self.log_eigenvalues)
        m = (self.eigenvectors * w) @ adjoint(self.eigenvectors)
        return 0.5 * (m + adjoint(m))


class Frame:
    """(A, X, B) triples, one or a stack, in their joint eigenframes.

    Every mean in the package is U_A (K o Xt) U_B* for Xt = U_A* X U_B
    and an entrywise kernel grid K = (a_i b_j)^(p/2) g(d_ij) of degree p,
    with d = (log a - log b)/2; Ky Fan norms are unitarily invariant, so
    margins need K o Xt only.  ``d`` and ``log_geo`` = (log a + log b)/2
    have the shape (..., n, n) of ``xt``.
    """

    def __init__(self, a, b, xt):
        la = np.log(np.asarray(a, dtype=float))[..., :, None]
        lb = np.log(np.asarray(b, dtype=float))[..., None, :]
        # the difference variable of the hyperbolic kernel calculus
        self.d = 0.5 * (la - lb)
        self.log_geo = 0.5 * (la + lb)
        self.xt = xt

    @classmethod
    def of(cls, a: HpdMatrix, x: np.ndarray, b: HpdMatrix) -> "Frame":
        """The frame of one (A, B) pair; x is one matrix or a stack."""
        if not (a.dim == b.dim and np.shape(x)[-2:] == (a.dim, a.dim)):
            raise DimMismatchError(
                f"dims A={a.dim}, X={np.shape(x)}, B={b.dim} do not match")
        return cls(a.eigenvalues, b.eigenvalues,
                   adjoint(a.eigenvectors) @ x @ b.eigenvectors)

    def __getitem__(self, index) -> "Frame":
        """The frame of some instances of a stack, ``Frame(a[index],
        b[index], xt[index])`` bit for bit: d and log_geo are
        elementwise in the logs, so their slices are theirs."""
        part = object.__new__(type(self))
        part.d, part.log_geo = self.d[index], self.log_geo[index]
        part.xt = self.xt[index]
        return part

    def scaled(self, p) -> np.ndarray:
        """(a_i b_j)^(p/2) o Xt, on which the kernels of degree p act."""
        return np.exp(p * self.log_geo) * self.xt


def frame_apply(kernel, degree, a: HpdMatrix, x: np.ndarray, b: HpdMatrix,
                *params) -> np.ndarray:
    """U_A (kernel(d, *params) o scaled(degree)) U_B* on the frame of
    (A, x, B)."""
    f = Frame.of(a, x, b)
    return (a.eigenvectors @ (kernel(f.d, *params) * f.scaled(degree))
            @ adjoint(b.eigenvectors))


def gaussian_unitary(g: np.ndarray) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix, or one
    for each matrix in a stack.

    Column phases are fixed from the R diagonal so the result is a
    deterministic function of the draw.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = d / np.where(np.abs(d) == 0.0, 1.0, np.abs(d))
    return q * phases.conj()[..., None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return gaussian_unitary(random_complex(dim, rng))


def log_range(condition_range: tuple[float, float]) -> tuple[float, float]:
    """Logs of a finite condition range (lo, hi) with 0 < lo <= hi."""
    lo, hi = condition_range
    if not (0.0 < lo <= hi < np.inf):
        raise ValueError("condition range must satisfy 0 < lo <= hi < inf")
    return np.log(lo), np.log(hi)


def to_interval(u, lo: float, hi: float):
    """lo + (hi - lo) u, numbers or arrays: what ``Generator.uniform(lo,
    hi)`` makes of the ``random()`` draws u it takes, bit for bit.  Like
    it, raises ValueError if hi < lo."""
    if hi < lo:
        raise ValueError(f"uniform needs lo <= hi, not [{lo}, {hi}]")
    return lo + (hi - lo) * u


def uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    """``rng.uniform(lo, hi, size)``, the same draws and bits, at the cost
    of ``rng.random(size)``."""
    return to_interval(rng.random(size), lo, hi)


def random_spectra(dim: int, rng: np.random.Generator,
                   condition_range=DEFAULT_CONDITION_RANGE,
                   count: int | None = None) -> tuple:
    """(eigenvalues, unitary) of a random HPD matrix, or stacks of
    ``count`` of them: ``count`` spectra log-uniform in condition_range,
    unsorted, then ``count`` unitaries from the QR of complex Gaussians.
    Raises ValueError for dim or count < 1, as ``random_complex`` does."""
    shape = dim if count is None else (count, dim)
    eigs = np.exp(uniform(rng, *log_range(condition_range), size=shape))
    return eigs, gaussian_unitary(random_complex(dim, rng, count))


def random_hpd(dim: int, rng: np.random.Generator,
               condition_range=DEFAULT_CONDITION_RANGE) -> HpdMatrix:
    """Random HPD matrix with eigenvalues log-uniform in condition_range."""
    return HpdMatrix.from_spectrum(*random_spectra(dim, rng,
                                                   condition_range))


_MASK32 = (1 << 32) - 1
# SeedSequence's hash and mix constants
_HASH_A, _HASH_A_MULT = 0x43B0D7E5, 0x931E8875
_HASH_B, _HASH_B_MULT = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(const: int, mult: int, first: int, calls: int):
    """SeedSequence's running hash constant before and after each of
    hash calls first, ..., first + calls - 1: the values it xors in and
    multiplies by, uint64 arrays of length calls."""
    c = np.array([const * pow(mult, k, 1 << 32) & _MASK32
                  for k in range(first, first + calls + 1)], np.uint64)
    return c[:-1], c[1:]


def _hash(v, xor, mult):
    """One hash call on 32-bit words held in uint64 arrays, the constants
    broadcast against them."""
    v = (v ^ xor) * mult & _MASK32
    return v ^ v >> 16


def _mix(x, y):
    v = (_MIX_L * x - _MIX_R * y) & _MASK32
    return v ^ v >> 16


class _Generated(np.random.bit_generator.ISeedSequence):
    """The words of one SeedSequence's ``generate_state(4, np.uint64)``,
    all that PCG64 asks of its seed sequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (4, np.uint64):
            raise ValueError("holds 4 uint64 words only")
        return self.words


def spawned_streams(seed: int, keys) -> list[np.random.Generator]:
    """``default_rng(SeedSequence(seed, spawn_key=key))`` for every key,
    tuples of ints in [0, 2^32) of one length.  The seed's words are
    mixed once, by ``SeedSequence(seed).pool``; the key words of all keys
    at once, as uint64 arrays; PCG64 seeds itself from the words."""
    seed, keys = operator.index(seed), np.asarray(keys)
    if (seed < 0 or keys.dtype.kind not in "iu"
            or np.any((keys < 0) | (keys > _MASK32))):
        raise ValueError("need a seed >= 0 and spawn keys of ints in "
                         "[0, 2^32)")
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    # the seed took 4 hash calls per word, at least 4 words; each key
    # word is then hashed into the four pool words in turn
    words = -(-seed.bit_length() // 32)
    xor, mult = _hash_constants(_HASH_A, _HASH_A_MULT, 4 * max(4, words),
                                4 * keys.shape[1])
    hashed = _hash(keys.astype(np.uint64)[..., None],
                   xor.reshape(-1, 4), mult.reshape(-1, 4))
    for k in range(keys.shape[1]):
        pool = _mix(pool, hashed[:, k])
    # generate_state(4, uint64): eight words, the low half of each first
    out = _hash(np.tile(pool, 2), *_hash_constants(_HASH_B, _HASH_B_MULT,
                                                   0, 8))
    out = out[:, 0::2] | out[:, 1::2] << np.uint64(32)
    return [np.random.Generator(np.random.PCG64(_Generated(w))) for w in out]


def complex_gaussian(g: np.ndarray) -> np.ndarray:
    """Standard complex Gaussian matrices from real standard normal
    pairs g[..., 0, :, :] (real parts) and g[..., 1, :, :] (imaginary)."""
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)


def random_complex(dim: int, rng: np.random.Generator,
                   count: int | None = None) -> np.ndarray:
    """dim x dim matrix with iid standard complex Gaussian entries, or a
    stack of ``count`` of them drawn one after another."""
    if dim < 1 or (count is not None and count < 1):
        raise ValueError(f"need dim and count >= 1, not {dim} and {count}")
    shape = (2, dim, dim) if count is None else (count, 2, dim, dim)
    return complex_gaussian(rng.standard_normal(shape))
