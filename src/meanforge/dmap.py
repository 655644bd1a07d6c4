"""Hyperbolic kernel calculus on the difference operator.

With A = e^(2 X1), B = e^(2 Y1) and D the difference of the left and
right multiplication maps by X1 and Y1, a scalar kernel f acts on
T = A^(1/2) X B^(1/2) as entrywise multiplication by f(d_ij) in the joint
eigenbases, where d_ij = (log a_i - log b_j)/2.

The kernel catalog covers the four contractive rational families
(cosh/sinh ratios and convex combinations), plus the plain cosh kernel
behind the Heinz mean, sinch behind the integral mean, and
``heinzAverage``, the integral of the Heinz kernel over nu in [lo, hi]
(not its average: the ``avg-*`` cases compare it with (hi - lo) times
the Heron mean).  Kernel parameters may be numbers or per-sample arrays
that broadcast against the d grid of a frame stack.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadIntervalError, DimMismatchError,
                     NumericalFailureError, PoleError, UnknownParameterError)
from .linalg import (_QUIET, Frame, HpdMatrix, _blocks, frame_apply,
                     random_complex, svd_values)
# ky_fan is looked up here by benchmarks/tracer.py.
from .norms import ky_fan  # noqa: F401

# Proposition 2.1's rational families in order: name -> (sinh, combo).
RATIONAL_FAMILIES = {
    "coshRatioT": (False, False),
    "coshComboRatio": (False, True),
    "sinhRatioT": (True, False),
    "sinhComboRatio": (True, True),
}

# Kernel kinds and the parameter names each one takes.
KERNEL_PARAMS = {
    "constant": ("value",),
    "coshScaled": ("c",),
    **{kind: (("r", "rp", "s1", "s2", "alpha", "beta") if combo
              else ("r", "s1", "s2", "t"))
       for kind, (_, combo) in RATIONAL_FAMILIES.items()},
    "sinch": (),
    "heinzAverage": ("lo", "hi"),
}


def sinch(x):
    """sinh(x)/x, elementwise, and 1 at the removable singularity x = 0.
    The quotient needs no series near 0: it stays within an ulp of the
    true value for every |x| down to the least subnormal."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0.0)


def heinz_average(d, lo, hi):
    """The integral of the Heinz kernel cosh((2 nu - 1) d) over nu in
    [lo, hi]: (c2 sinch(c2 d) - c1 sinch(c1 d))/2 with c = 2 nu - 1."""
    c1 = 2.0 * lo - 1.0
    c2 = 2.0 * hi - 1.0
    return 0.5 * (c2 * sinch(c2 * d) - c1 * sinch(c1 * d))


@dataclass(frozen=True)
class KernelSpec:
    """A scalar function of the d variable: kernel kind plus parameters,
    numbers or per-sample arrays.  Construction only validates: the kind,
    the parameter names, that every parameter is finite (``math.isfinite``
    when all are scalars, else one numpy call over them broadcast
    together) and, for ``heinzAverage``, lo < hi."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KERNEL_PARAMS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        names = KERNEL_PARAMS[self.kind]
        if set(self.params) != set(names):
            raise UnknownParameterError(
                f"kernel {self.kind} takes {', '.join(names) or 'none'}; "
                f"got {', '.join(self.params) or 'none'}")
        values = self.params.values()
        if _all_scalars(values):
            finite = list(map(math.isfinite, values))
        else:
            finite = np.isfinite(np.broadcast_arrays(*values)).reshape(
                len(values), -1).all(axis=1)
        if not all(finite):
            key = next(k for k, ok in zip(self.params, finite) if not ok)
            raise ValueError(
                f"non-finite kernel parameter {key}={self.params[key]}")
        if self.kind == "heinzAverage":
            lo, hi = self.params["lo"], self.params["hi"]
            if not np.all(np.less(lo, hi)):
                raise BadIntervalError(f"need lo < hi, got [{lo}, {hi}]")


_SCALARS = (int, float, np.integer, np.floating)


def _all_scalars(values) -> bool:
    return all(isinstance(v, _SCALARS) for v in values)


def kernel_eval(spec: KernelSpec, d):
    """Evaluate the kernel at d (scalar or array), removable
    singularities filled in.  Array parameters broadcast against d; a
    rational family evaluates all its exponential terms in one pass over
    a (terms, ...) stack.  PoleError where a denominator's terms cancel
    to 0 or all its weights are 0; where the shared scale alone
    underflows it, the quotient is +-inf if the ratio overflows."""
    d = np.asarray(d, dtype=float)
    kind, p = spec.kind, spec.params

    if kind == "constant":
        return np.full_like(d, p["value"])
    if kind == "coshScaled":
        return np.cosh(p["c"] * d)
    if kind == "sinch":
        return sinch(d)
    if kind == "heinzAverage":
        return heinz_average(d, p["lo"], p["hi"])

    # The four rational families: sums of c cosh(e d) terms, or of
    # c sinh(e d)/(e d) terms (sinch, so that d = 0 and e = 0 are
    # regular), over the same.  Both sides are scaled by e^-m with m the
    # largest |e d|, so no term overflows where the ratio does not.
    sinh, combo = RATIONAL_FAMILIES[kind]
    if combo:
        alpha, beta = p["alpha"], p["beta"]
        exponents = (p["r"], p["rp"], p["s1"], p["s2"])
        num = (alpha, 1.0 - alpha)
        den = (beta, 1.0 - beta)
    else:
        t = p["t"]
        exponents = (p["r"], p["s1"], p["s2"])
        num = (1.0 + t,)
        den = (1.0, t)
    if sinh:
        # (1+t) sinh(r d) / (r (sinh(s1 d) + t sinh(s2 d))) and likewise
        den = tuple(c * e for c, e in zip(den, exponents[len(num):]))
    term = _sinch_scaled if sinh else _cosh_scaled

    e = leading_stack(exponents, d)
    top = (max(map(abs, exponents)) if _all_scalars(exponents)
           else np.abs(e).max(axis=0))
    terms = term(e * d, np.abs(d) * top)
    weights, bottom = den, terms[len(num):]
    num, den = _weighted(zip(num, terms)), _weighted(zip(weights, bottom))
    zero = den == 0.0
    if zero.any():
        # terms >= 0 cancel where their |weighted| sum is not 0; where it
        # is 0 with a weight that is not, the shared scale underflowed
        size = _weighted(zip(map(np.abs, weights), bottom))
        if (zero & ((size > 0.0) | (sum(map(np.abs, weights)) == 0.0))
                ).any():
            raise PoleError(f"kernel {kind} denominator vanishes")
    return num / den


def leading_stack(values, d) -> np.ndarray:
    """Values, an array (k, ...) or k numbers or arrays that broadcast
    together, on a new leading axis that stays leading when broadcast
    against d: their own axes line up with the last ones of d, as numpy
    lines them up."""
    if not (isinstance(values, np.ndarray) or _all_scalars(values)):
        values = np.broadcast_arrays(*values)
    stack = np.asarray(values)
    ones = (1,) * (np.ndim(d) + 1 - stack.ndim)
    return stack.reshape(stack.shape[:1] + ones + stack.shape[1:])


def _weighted(terms):
    """c0 T0 + c1 T1 + ... of pairs (c, T), added in that order."""
    (c, term), *rest = terms
    total = c * term
    for c, term in rest:
        total = total + c * term
    return total


def _cosh_scaled(x, m):
    """cosh(x) e^-m for m >= |x|."""
    u = np.abs(x)
    return 0.5 * np.exp(u - m) * (1.0 + np.exp(-2.0 * u))


def _sinch_scaled(x, m):
    """sinh(x)/x e^-m for m >= |x|; expm1 keeps small |x| accurate."""
    u = np.abs(x)
    ratio = np.divide(-np.expm1(-2.0 * u), 2.0 * u, out=np.ones_like(u),
                      where=u != 0.0)
    return ratio * np.exp(u - m)


def kernel_in_hypothesis(spec: KernelSpec) -> dict | None:
    """Whether the kernel parameters satisfy the contractivity
    hypotheses of the four rational families.

    Returns flags for two readings of the exponent condition
    r <= (s1+s2)/2: "literal" (signed, as stated) and "abs" (on |r|,
    the reading the even/odd symmetry of the kernels actually needs).
    The paper states no hypothesis for the other kinds: None.
    """
    if spec.kind not in RATIONAL_FAMILIES:
        return None
    sinh, combo = RATIONAL_FAMILIES[spec.kind]
    p = spec.params
    s1, s2 = p["s1"], p["s2"]
    exponents = [p["r"], p["rp"]] if combo else [p["r"]]
    mid = 0.5 * (s1 + s2)

    ordered = 0.0 <= s2 <= s1 or s1 <= s2 <= 0.0
    literal = ordered and all(r <= mid if s1 >= 0.0 else r >= mid
                              for r in exponents)
    in_abs = ordered and all(abs(r) <= abs(mid) for r in exponents)

    if combo:
        ok = 0.0 <= p["alpha"] <= 1.0 and p["beta"] >= 0.5
    else:
        ok = -1.0 < p["t"] <= 1.0
    if sinh:
        ok = ok and abs(s1 + s2) >= 2.0
    return {"literal": literal and ok, "abs": in_abs and ok}


class DMap:
    """Joint-eigenbasis frame of an (A, B) pair, applying kernels to
    single matrices X."""

    def __init__(self, a: HpdMatrix, b: HpdMatrix):
        self.a = a
        self.b = b

    def apply(self, spec: KernelSpec, x: np.ndarray) -> np.ndarray:
        """f(D) applied to A^(1/2) X B^(1/2)."""
        return frame_apply(lambda d: kernel_eval(spec, d), 1.0,
                           self.a, x, self.b)


@np.errstate(**_QUIET)
def contractivity_check(spec: KernelSpec, a: HpdMatrix, b: HpdMatrix,
                        sample_count: int, rng: np.random.Generator):
    """Sampled Ky Fan certificate of |||f(D) T||| <= |||T|||.

    Returns (max_ratio, worst_xt) where max_ratio is the maximum over
    random T and Ky Fan orders of ky_fan(f(D)T, k) / ky_fan(T, k); orders
    where ky_fan(T, k) is 0 are skipped.  The sample_count draws are of
    Xt, X in the joint eigenframe of (A, B): a standard complex Gaussian,
    as U_A* X U_B is for a Gaussian X, and Ky Fan norms do not see the
    rotation.  K, the kernel on the frame's d, is evaluated once; samples
    are drawn in pieces of at most CELL_BLOCK, [K, 1] times a piece's
    scaled Xt goes through one singular value call, and the first maximum
    in (sample, order) order is kept.  No eigenvector is read: worst_xt
    is a copy of the worst sample as drawn, in the frame, and X = U_A
    worst_xt U_B* is the caller's to form.  A grid that overflows is not
    warned about: its NaN singular values, like those svd_values gives a
    stack whose SVD fails to converge, make the ratio NaN, and a max_ratio
    that is not finite raises NumericalFailureError, so it is finite.
    """
    sample_count = operator.index(sample_count)
    if a.dim != b.dim:
        raise DimMismatchError(f"dims A={a.dim}, B={b.dim} do not match")
    frame = Frame(a.eigenvalues, b.eigenvalues, None)
    kernel = kernel_eval(spec, frame.d)
    grids = np.array([kernel, np.ones_like(kernel)])[:, None]
    geo = np.exp(frame.log_geo)
    max_ratio = -math.inf
    # a count below 1 is one empty piece, whose draw random_complex refuses
    for piece in _blocks(sample_count) or [range(0)]:
        xt = random_complex(a.dim, rng, len(piece))
        fans = np.cumsum(svd_values(grids * (geo * xt)), axis=-1)
        ratios = np.where(fans[1] == 0.0, -np.inf, fans[0] / fans[1])
        j = int(ratios.argmax())
        ratio = float(ratios.flat[j])
        if not ratio <= max_ratio:  # greater, or NaN: no verdict
            max_ratio, worst = ratio, xt[j // a.dim].copy()
            if math.isnan(max_ratio):
                break
    if not math.isfinite(max_ratio):  # NaN, or -inf: no order to compare
        raise NumericalFailureError(f"maxRatio {max_ratio} is not finite")
    return max_ratio, worst
