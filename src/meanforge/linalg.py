"""Dense complex linear algebra: Hermitian eigendecomposition, singular
values, HPD spectral calculus, joint eigenframes and seeded random
instance generation.

Matrices are plain complex numpy arrays, or stacks (..., n, n) where a
docstring says so.  Hermitian positive definite matrices are carried as
:class:`HpdMatrix`, which keeps the eigendecomposition.
"""

from __future__ import annotations

import operator
from functools import cached_property, partial

import numpy as np

from .errors import (DimMismatchError, NotHermitianError,
                     NumericalFailureError)

HERMITIAN_RTOL = 1e-12
# eigenvalue range of random instances unless a caller gives another
DEFAULT_CONDITION_RANGE = (0.05, 20.0)

# The verdicts' error state: like a failed SVD (NaN in svd_values), an
# overflow, a division by zero or inf/inf is not warned about; it makes
# NaN or inf margins and ratios, which their callers count or refuse.
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}

# Suite cells, fuzz restarts and sweep moves, and contractivity samples are
# made and scored in _blocks of at most CELL_BLOCK points; what is kept is a
# copy.  That bounds a piece's points, not its bytes: a point's n x n stacks
# (f-nu-shape holds 21 grids) make a piece, and fuzz's peak, grow like n^2.
CELL_BLOCK = 256


def _blocks(n: int) -> list[range]:
    """range(n) cut into consecutive pieces of at most CELL_BLOCK."""
    return [range(lo, min(lo + CELL_BLOCK, n))
            for lo in range(0, n, CELL_BLOCK)]


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def is_hermitian(m: np.ndarray) -> bool:
    """||m - m*||_F <= HERMITIAN_RTOL ||m||_F: True for a zero matrix,
    False for one with a NaN entry.  Taken on m over its largest entry
    modulus, as ``svd_values`` scales its order-2 form, so that no square
    in the norms underflows or overflows and the answer does not depend
    on the scale of m.  A product, not a complex division, which would
    warn on a NaN entry."""
    m = np.asarray(m)
    m = m * (1.0 / np.maximum(np.abs(m).max(), _TINY))
    return bool(np.linalg.norm(m - adjoint(m))
                <= HERMITIAN_RTOL * np.linalg.norm(m))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, V) with eigenvalues real and descending and the
    columns of V orthonormal, so that m = V diag(w) V*.  A failed
    eigensolver raises NumericalFailureError.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def svd_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or of each matrix in a stack,
    descending along the last axis; NaN for a matrix with a NaN or inf
    entry, which LAPACK rejects, and for every matrix of a stack whose
    LAPACK call fails to converge.

    Taken from the SVD itself, by LAPACK: going through the eigenvalues
    of m* m would square the condition number and lose the small values.
    Square matrices of order 1 and 2 are done in closed form, with no
    LAPACK call: sigma = |m| at order 1, and at order 2, on m divided by
    its largest entry modulus so that no square overflows, with p and r
    the squared column norms and q their inner product,

        sigma1 = sqrt((p + r)/2 + hypot((p - r)/2, |q|)),
        sigma1 + sigma2 = sqrt(p + r + 2 |det m|),

    the second the trace norm.  sigma1 is a root of a sum of nonnegative
    terms, so it is accurate to a few eps relative; sigma2 is the
    difference clamped to [0, sigma1], accurate to a few eps sigma1
    absolute, LAPACK's own bound.
    """
    m = np.asarray(m)
    rows, cols = m.shape[-2:]
    values_of = _CLOSED_FORM.get(cols, _lapack) if rows == cols else _lapack
    if np.isfinite(m).all():
        return values_of(m)
    finite = np.isfinite(m).all(axis=(-2, -1))
    values = np.full((*m.shape[:-2], min(rows, cols)), np.nan)
    values[finite] = values_of(m[finite])
    return values


def _lapack(m):
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError:
        return np.full((*m.shape[:-2], min(m.shape[-2:])), np.nan)


# 0-d arrays: numpy combines them with arrays faster than Python floats
_TINY = np.array(np.finfo(float).tiny)
_ZERO, _HALF = np.array(0.0), np.array(0.5)


def _order_2(m):
    """svd_values of finite 2 x 2 matrices, by the closed form."""
    w = np.abs(m)
    # divided by at least the least normal double: a complex division
    # takes the divisor's reciprocal, which must not overflow (a zero
    # matrix stays zero)
    top = np.maximum(w.max(axis=(-2, -1)), _TINY)[..., None, None]
    u, w = m / top, w / top
    w *= w
    p, r = w[..., 0, 0] + w[..., 1, 0], w[..., 0, 1] + w[..., 1, 1]
    c0, c1 = u[..., 0], u[..., 1]
    q = c0.conj() * c1
    q = np.abs(q[..., 0] + q[..., 1])
    det = c0 * c1[..., ::-1]
    det = np.abs(det[..., 0] - det[..., 1])
    s = p + r
    out = np.empty((*s.shape, 2))
    sigma1, sigma2 = out[..., 0], out[..., 1]
    np.hypot(p - r, q + q, out=sigma1)
    sigma1 += s
    sigma1 *= _HALF
    np.add(det + det, s, out=sigma2)
    np.sqrt(out, out=out)
    sigma2 -= sigma1
    np.maximum(sigma2, _ZERO, out=sigma2)
    np.minimum(sigma2, sigma1, out=sigma2)
    out *= top[..., 0]
    return out


_CLOSED_FORM = {1: lambda m: np.abs(m[..., 0]), 2: _order_2}


class HpdMatrix:
    """Hermitian positive definite matrix with its spectral data.

    eigenvalues are descending and strictly positive; the columns of
    eigenvectors are orthonormal and matrix = V diag(eigenvalues) V*.
    Made by ``from_spectrum``, which keeps the columns as given, an array
    or a function of no arguments (``random_hpd`` defers its QR so), with
    their sort order.  eigenvectors and matrix are formed on their first
    read and kept, so every read returns the same array.
    """

    def __init__(self, eigenvalues, vectors, order):
        self.eigenvalues = eigenvalues
        self._vectors, self._order = vectors, order

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        v = self._vectors() if callable(self._vectors) else self._vectors
        return np.asarray(v, dtype=complex)[:, self._order]

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._assemble(self.eigenvalues)

    @classmethod
    def from_spectrum(cls, eigenvalues, eigenvectors) -> "HpdMatrix":
        """The one check of a spectrum: finite, strictly positive
        eigenvalues (else ValueError), put in descending order, ties kept
        in order.  The eigenvector columns, an array or a function of no
        arguments, are kept with that order, applied on their first read."""
        w = np.asarray(eigenvalues, dtype=float)
        if not 0.0 < w.min() <= w.max() < np.inf:  # False for a NaN
            raise ValueError("eigenvalues must be finite and strictly "
                             "positive")
        order = np.argsort(-w, kind="stable")
        return cls(w[order], eigenvectors, order)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "HpdMatrix":
        """m, kept as given as ``matrix``, with the spectrum of
        ``hermitian_eig(m)`` checked by ``from_spectrum``."""
        h = cls.from_spectrum(*hermitian_eig(m))
        h.matrix = np.asarray(m, dtype=complex)
        return h

    def power(self, t: float) -> np.ndarray:
        """Fractional power V diag(lambda^t) V*."""
        if t == 0.0:
            return np.eye(self.dim, dtype=complex)
        if t == 1.0:
            return self.matrix
        return self._assemble(np.exp(t * np.log(self.eigenvalues)))

    def _assemble(self, w) -> np.ndarray:
        """The Hermitian part of V diag(w) V*, V the eigenvectors."""
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
        self.d = _HALF * (la - lb)
        self.log_geo = _HALF * (la + lb)
        self.xt = xt

    @classmethod
    def of(cls, a: HpdMatrix, x: np.ndarray, b: HpdMatrix) -> "Frame":
        """The frame of one (A, B) pair; x is one matrix or a stack."""
        if not (a.dim == b.dim and np.shape(x)[-2:] == (a.dim, a.dim)):
            raise DimMismatchError(
                f"dims A={a.dim}, X={np.shape(x)}, B={b.dim} do not match")
        return cls(a.eigenvalues, b.eigenvalues,
                   adjoint(a.eigenvectors) @ x @ b.eigenvectors)

    def scaled(self, p=1.0) -> np.ndarray:
        """(a_i b_j)^(p/2) o Xt, on which the kernels of degree p act;
        degree 1 by default."""
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
    deterministic function of the draw.  A failed QR raises
    NumericalFailureError.
    """
    try:
        q, r = np.linalg.qr(g)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(str(exc)) from exc
    d = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(d)
    q *= (d / np.where(size == 0.0, 1.0, size)).conj()[..., None, :]
    return q


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


def random_hpd(dim: int, rng: np.random.Generator,
               condition_range=DEFAULT_CONDITION_RANGE) -> HpdMatrix:
    """Random HPD matrix: eigenvalues log-uniform in condition_range, then
    eigenvectors from the QR of a complex Gaussian.  Only the Gaussian's
    real normals are drawn here, as ``random_complex`` draws them; the
    Gaussian and its QR (a failed one raises NumericalFailureError) are
    the columns ``from_spectrum`` keeps, a function called on the first
    read of ``eigenvectors``.  Raises ValueError for dim < 1."""
    eigs = np.exp(uniform(rng, *log_range(condition_range), size=dim))
    return HpdMatrix.from_spectrum(
        eigs, partial(_unitary_of, _normals(dim, rng)))


def _unitary_of(g: np.ndarray) -> np.ndarray:
    """The unitary of random_unitary's draw, from its real normals g."""
    return gaussian_unitary(complex_gaussian(g))


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
    pairs g[..., 0, :, :] (real parts) and g[..., 1, :, :] (imaginary),
    written into one array and scaled in place: the bits of
    (g0 + 1j g1) / sqrt(2) for nonzero g0 and g1."""
    z = np.empty(g[..., 0, :, :].shape, complex)
    z.real, z.imag = g[..., 0, :, :], g[..., 1, :, :]
    z /= np.sqrt(2.0)
    return z


def random_complex(dim: int, rng: np.random.Generator,
                   count: int | None = None) -> np.ndarray:
    """dim x dim matrix with iid standard complex Gaussian entries, or a
    stack of ``count`` of them drawn one after another."""
    return complex_gaussian(_normals(dim, rng, count))


def _normals(dim: int, rng: np.random.Generator,
             count: int | None = None) -> np.ndarray:
    """The real standard normals of random_complex's draw, pairs
    (2, dim, dim) or a stack (count, 2, dim, dim) of them."""
    if dim < 1 or (count is not None and count < 1):
        raise ValueError(f"need dim and count >= 1, not {dim} and {count}")
    shape = (2, dim, dim) if count is None else (count, 2, dim, dim)
    return rng.standard_normal(shape)
