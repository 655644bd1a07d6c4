"""Dense complex linear algebra: Hermitian eigendecomposition, singular
values, HPD spectral calculus, joint eigenframes and seeded random
instance generation.

Matrices are plain complex numpy arrays, or stacks (..., n, n) where a
docstring says so.  Hermitian positive definite matrices are carried as
:class:`HpdMatrix`, which keeps the eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatchError, NoConvergenceError, NotHermitianError

HERMITIAN_RTOL = 1e-12


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
    descending along the last axis.

    Taken from the SVD itself: going through the eigenvalues of m* m
    would square the condition number and lose the small values.
    """
    return np.linalg.svd(m, compute_uv=False)


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
    """Logs of a condition range (lo, hi) with 0 < lo <= hi."""
    lo, hi = condition_range
    if not (0.0 < lo <= hi):
        raise ValueError("condition range must satisfy 0 < lo <= hi")
    return np.log(lo), np.log(hi)


def random_hpd(dim: int, rng: np.random.Generator,
               condition_range: tuple[float, float] = (0.05, 20.0)) -> HpdMatrix:
    """Random HPD matrix with eigenvalues log-uniform in condition_range."""
    eigs = np.exp(rng.uniform(*log_range(condition_range), size=dim))
    return HpdMatrix.from_spectrum(eigs, random_unitary(dim, rng))


def complex_gaussian(g: np.ndarray) -> np.ndarray:
    """Standard complex Gaussian matrices from real standard normal
    pairs g[..., 0, :, :] (real parts) and g[..., 1, :, :] (imaginary)."""
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)


def random_complex(dim: int, rng: np.random.Generator,
                   count: int | None = None) -> np.ndarray:
    """dim x dim matrix with iid standard complex Gaussian entries, or a
    stack of ``count`` of them drawn one after another."""
    shape = (2, dim, dim) if count is None else (count, 2, dim, dim)
    return complex_gaussian(rng.standard_normal(shape))
