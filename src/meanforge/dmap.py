"""Hyperbolic kernel calculus on the difference operator.

With A = e^(2 X1), B = e^(2 Y1) and D the difference of the left and
right multiplication maps by X1 and Y1, a scalar kernel f acts on
T = A^(1/2) X B^(1/2) as entrywise multiplication by f(d_ij) in the joint
eigenbases, where d_ij = (log a_i - log b_j)/2.

The kernel catalog covers the four contractive rational families
(cosh/sinh ratios and convex combinations), plus the plain cosh kernel
behind the Heinz mean, sinch behind the integral mean, and the finite
nu-average kernel.  Kernel parameters may be numbers or per-sample
arrays that broadcast against the d grid of a frame stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import PoleError, UnknownParameterError
from .linalg import (Frame, HpdMatrix, frame_apply, random_complex,
                     svd_values)
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

# |x| below which sinh(x)/x switches to its Taylor series; truncation
# error is ~x^8/10^4, far below working tolerances.
SERIES_THRESHOLD = 1e-5

_POLE_EPS = 1e-300


def sinch(x):
    """sinh(x)/x, elementwise, with the removable singularity at 0
    filled by series."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < SERIES_THRESHOLD
    x2 = x * x
    series = 1.0 + x2 / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0))
    safe = np.where(small, 1.0, x)
    exact = np.sinh(safe) / safe
    return np.where(small, series, exact)


@dataclass(frozen=True)
class KernelSpec:
    """A scalar function of the d variable: kernel kind plus parameters."""

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
        for key, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"non-finite kernel parameter {key}={value}")


def kernel_eval(spec: KernelSpec, d):
    """Evaluate the kernel at d (scalar or array), removable
    singularities filled in."""
    d = np.asarray(d, dtype=float)
    kind, p = spec.kind, spec.params

    if kind == "constant":
        return np.full_like(d, p["value"])
    if kind == "coshScaled":
        return np.cosh(p["c"] * d)
    if kind == "sinch":
        return sinch(d)
    if kind == "heinzAverage":
        c1 = 2.0 * p["lo"] - 1.0
        c2 = 2.0 * p["hi"] - 1.0
        return 0.5 * (c2 * sinch(c2 * d) - c1 * sinch(c1 * d))

    # The four rational families: sums of c cosh(e d) terms, or of
    # c sinh(e d)/(e d) terms (sinch, so that d = 0 and e = 0 are
    # regular), over the same.  Both sides are scaled by e^-m with m the
    # largest |e d|, so no term overflows where the ratio does not.
    sinh, combo = RATIONAL_FAMILIES[kind]
    if combo:
        alpha, beta = p["alpha"], p["beta"]
        num = [(alpha, p["r"]), (1.0 - alpha, p["rp"])]
        den = [(beta, p["s1"]), (1.0 - beta, p["s2"])]
    else:
        t = p["t"]
        num = [(1.0 + t, p["r"])]
        den = [(1.0, p["s1"]), (t, p["s2"])]
    if sinh:
        # (1+t) sinh(r d) / (r (sinh(s1 d) + t sinh(s2 d))) and likewise
        den = [(c * e, e) for c, e in den]
    term = _sinch_scaled if sinh else _cosh_scaled

    m = np.abs(d) * reduce(np.maximum, [np.abs(e) for _, e in num + den])
    num, den = (sum(c * term(e * d, m) for c, e in side)
                for side in (num, den))
    scale = np.maximum(np.abs(num), 1.0)
    if np.any(np.abs(den) <= _POLE_EPS * scale):
        raise PoleError(f"kernel {kind} denominator vanishes")
    return num / den


def _cosh_scaled(x, m):
    """cosh(x) e^-m for m >= |x|."""
    u = np.abs(x)
    return 0.5 * np.exp(u - m) * (1.0 + np.exp(-2.0 * u))


def _sinch_scaled(x, m):
    """sinh(x)/x e^-m for m >= |x|; expm1 keeps small |x| accurate."""
    u = np.abs(x)
    safe = np.where(u == 0.0, 1.0, u)
    ratio = np.where(u == 0.0, 1.0, -np.expm1(-2.0 * safe) / (2.0 * safe))
    return ratio * np.exp(u - m)


def kernel_in_hypothesis(spec: KernelSpec) -> dict:
    """Whether the kernel parameters satisfy the contractivity
    hypotheses of the four rational families.

    Returns flags for two readings of the exponent condition
    r <= (s1+s2)/2: "literal" (signed, as stated) and "abs" (on |r|,
    the reading the even/odd symmetry of the kernels actually needs).
    Non-rational kinds report True for both.
    """
    if spec.kind not in RATIONAL_FAMILIES:
        return {"literal": True, "abs": True}
    sinh, combo = RATIONAL_FAMILIES[spec.kind]
    p = spec.params
    s1, s2 = p["s1"], p["s2"]
    exponents = [p["r"], p["rp"]] if combo else [p["r"]]
    mid = 0.5 * (s1 + s2)

    if 0.0 <= s2 <= s1:
        literal = all(r <= mid for r in exponents)
    elif s1 <= s2 <= 0.0:
        literal = all(r >= mid for r in exponents)
    else:
        literal = False
    in_abs = (0.0 <= s2 <= s1 or s1 <= s2 <= 0.0) and all(
        abs(r) <= abs(mid) for r in exponents)

    if combo:
        ok = 0.0 <= p["alpha"] <= 1.0 and p["beta"] >= 0.5
    else:
        ok = -1.0 < p["t"] <= 1.0
    if sinh:
        ok = ok and abs(s1 + s2) >= 2.0
    return {"literal": literal and ok, "abs": in_abs and ok}


def kernel_grid(frame: Frame, spec: KernelSpec) -> np.ndarray:
    """The entrywise kernel of f(D) applied to A^(1/2) X B^(1/2) on a
    frame."""
    return kernel_eval(spec, frame.d) * frame.power(0.5, 0.5)


class DMap:
    """Joint-eigenbasis frame of an (A, B) pair, applying kernels to
    single matrices X."""

    def __init__(self, a: HpdMatrix, b: HpdMatrix):
        self.a = a
        self.b = b

    def apply(self, spec: KernelSpec, x: np.ndarray) -> np.ndarray:
        """f(D) applied to A^(1/2) X B^(1/2)."""
        return frame_apply(kernel_grid, self.a, x, self.b, spec)


def contractivity_check(spec: KernelSpec, a: HpdMatrix, b: HpdMatrix,
                        sample_count: int, rng: np.random.Generator):
    """Sampled Ky Fan certificate of |||f(D) T||| <= |||T|||.

    Returns (max_ratio, worst_x) where max_ratio is the maximum over
    random T and Ky Fan orders of ky_fan(f(D)T, k) / ky_fan(T, k); orders
    where ky_fan(T, k) is 0 are skipped.  All sample_count draws of X
    are evaluated as one stack.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    xs = random_complex(a.dim, rng, sample_count)
    frame = Frame.of(a, xs, b)
    base = frame.power(0.5, 0.5) * frame.xt
    mapped = kernel_eval(spec, frame.d) * base
    fans = np.cumsum(svd_values(np.stack([mapped, base])), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(fans[1] == 0.0, -np.inf, fans[0] / fans[1])
    worst = np.unravel_index(np.argmax(ratios), ratios.shape)
    max_ratio = float(ratios[worst])
    return max_ratio, (xs[worst[0]] if max_ratio > -np.inf else None)
