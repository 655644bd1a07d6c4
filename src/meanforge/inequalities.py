"""Registry of the verified norm inequalities, the suite runner and the
out-of-range counterexample fuzzer.

Every inequality is encoded as a list of comparison steps.  A step says
that an affine combination of Ky Fan norms on the left is dominated by
one on the right; its margins (right minus left, one per Ky Fan order)
must all be nonnegative up to a relative tolerance whenever the case
parameters lie inside the registered validity ranges.

Builders write steps on a :class:`Frame`, a single instance or a stack:
each term is the kernel grid of a mean, whose Ky Fan norms are those of
the grid times the frame's Xt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dmap import RATIONAL_FAMILIES, KernelSpec, kernel_grid
from .errors import (DimMismatchError, RangeViolationError,
                     UnknownCaseError, UnknownParameterError)
from .linalg import (Frame, HpdMatrix, adjoint, complex_gaussian,
                     descending, gaussian_unitary, log_range, svd_values)
from .means import (geo_grid, heinz_grid, heron_grid, integral_grid,
                    nu_average_grid, p_diff_grid, p_sum_grid)
# The matrix-valued means are looked up here by benchmarks/tracer.py.
from .means import (heinz, heinz_nu_average, heinz_p_diff,  # noqa: F401
                    heinz_p_sum, heron, integral_mean)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_CONDITION_RANGE = (0.05, 20.0)
# the fuzzer's random restarts draw eigenvalues from a wider range
FUZZ_CONDITION_RANGE = (1e-3, 1e3)

# Unbounded alpha ranges are sampled on [1/2, ALPHA_CAP]; the Heron mean
# grows linearly in alpha, so small alpha is the tight regime.
ALPHA_CAP = 10.0

Term = tuple[float, np.ndarray]


@dataclass(frozen=True)
class Step:
    lhs: list[Term]
    rhs: list[Term]


@dataclass(frozen=True)
class InstanceTriple:
    a: HpdMatrix
    b: HpdMatrix
    x: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.dim


@dataclass(frozen=True)
class InequalityCase:
    id: str
    ranges: dict
    sampler: object  # rng -> params dict
    builder: object  # (Frame, params) -> list[Step] of kernel grids
    description: str = ""

    def in_range(self, params: dict) -> bool:
        for name, (lo, hi) in self.ranges.items():
            value = params.get(name)
            if value is None or not (lo <= value <= hi):
                return False
        return True


def step_margins(steps: list[Step], xt=1.0) -> tuple[list, list]:
    """Ky Fan margins and normalization scales for a list of steps.

    Each term is a kernel grid that multiplies ``xt`` entrywise or, with
    ``xt`` left at 1, a matrix; terms may be stacks (..., n, n).  The
    singular values of all distinct terms come from one batched SVD.
    Returns per step the margins (..., n), right minus left for each Ky
    Fan order, and the scale (...), 1 + the trace norm of the right side.
    """
    terms = {id(m): m for step in steps for _, m in step.lhs + step.rhs}
    if len({np.shape(m) for m in terms.values()}) > 1:
        raise DimMismatchError("step terms differ in shape")
    stack = np.stack(list(terms.values())) * xt
    if np.isfinite(stack).all():
        fans = np.cumsum(svd_values(stack), -1)
    else:
        # LAPACK rejects NaN and inf: a term with such an entry gets NaN
        # singular values, so that its margins count as numerical failures
        finite = np.isfinite(stack).all(axis=(-2, -1))
        values = np.full(stack.shape[:-1], np.nan)
        values[finite] = svd_values(stack[finite])
        fans = np.cumsum(values, -1)
    # cumulative sums as (..., 1, n), so that coefficients, numbers or
    # per-sample (..., 1, 1) arrays, weigh them by broadcasting
    cumulative = dict(zip(terms, fans[..., None, :]))

    margins, scales = [], []
    for step in steps:
        total = sum(c * cumulative[id(m)] for c, m in step.rhs)
        scales.append(1.0 + total[..., 0, -1])
        for c, m in step.lhs:
            total = total - c * cumulative[id(m)]
        margins.append(total[..., 0, :])
    return margins, scales


@np.errstate(over="ignore", invalid="ignore")
def _margins(case: InequalityCase, frame: Frame, params) -> tuple:
    """step_margins of a case's steps on a frame, NaN if an SVD fails.
    Overflow is not warned about: callers count or rank NaN and inf."""
    steps = case.builder(frame, params)
    try:
        return step_margins(steps, frame.xt)
    except np.linalg.LinAlgError:
        nan = np.full(np.shape(frame.xt)[:-1], np.nan)
        return [nan] * len(steps), [nan[..., 0]] * len(steps)


def evaluate(case: InequalityCase, inst: InstanceTriple, params: dict,
             override: bool = False) -> list[np.ndarray]:
    """Per-step, per-Ky-Fan-order margins for one instance."""
    if not override and not case.in_range(params):
        raise RangeViolationError(
            f"{case.id}: parameters {params} outside validity ranges")
    return _margins(case, Frame.of(inst.a, inst.x, inst.b), params)[0]


# ---------------------------------------------------------------------------
# Builders: (Frame, params) -> steps whose terms are kernel grids

def _sample_alpha(rng) -> float:
    # boundary point alpha = 1/2 drawn with positive probability
    if rng.uniform() < 0.1:
        return 0.5
    return float(rng.uniform(0.5, ALPHA_CAP))


def _build_eq11(f, p):
    t = p["t"]
    lhs = p_sum_grid(f, p["nu"], 1.0)
    rhs = f.a + f.b + t * geo_grid(f)  # AX + XB + t A^(1/2) X B^(1/2)
    return [Step([(1.0, lhs)], [(2.0 / (2.0 + t), rhs)])]


def _build_eq12(f, p):
    h = heinz_grid(f, p["nu"])
    return [Step([(1.0, h)], [(1.0, heron_grid(f, p["alpha"]))])]


def _build_eq13(f, p):
    g = geo_grid(f)
    h = heinz_grid(f, p["nu"])
    return [Step([(1.0, g)], [(1.0, h)]),
            Step([(1.0, h)], [(1.0, heron_grid(f, p["alpha"]))])]


def _build_ref_ali(f, p):
    nu = p["nu"]
    r0 = np.minimum(nu, 1.0 - nu)
    h = heinz_grid(f, nu)
    return [Step([(1.0, h)],
                 [(4.0 * r0 - 1.0, geo_grid(f)),
                  (2.0 * (1.0 - 2.0 * r0), heron_grid(f, p["alpha"]))])]


def _build_eq14_chain(f, p):
    im = integral_grid(f)
    return [Step([(1.0, geo_grid(f))], [(1.0, im)]),
            Step([(1.0, im)], [(1.0, heron_grid(f, p["alpha"]))])]


ALPHA_MONO_GRID = tuple(np.round(np.arange(0.5, 10.01, 0.5), 10))
ALPHA_SMALL_GRID = (0.0, 0.1, 0.2, 0.3, 0.4)


def _build_alpha_mono(f, p):
    herons = {alpha: heron_grid(f, alpha)
              for alpha in ALPHA_MONO_GRID + ALPHA_SMALL_GRID}
    steps = [Step([(1.0, herons[a1])], [(1.0, herons[a2])])
             for a1, a2 in zip(ALPHA_MONO_GRID, ALPHA_MONO_GRID[1:])]
    half = herons[ALPHA_MONO_GRID[0]]
    steps += [Step([(1.0, herons[a])], [(1.0, half)])
              for a in ALPHA_SMALL_GRID]
    return steps


def _convex_chain(f, p, mids):
    """H_nu <= mid_1 <= ... <= mid_k <= F_alpha as successive steps."""
    chain = [heinz_grid(f, p["nu"])] + mids + [heron_grid(f, p["alpha"])]
    return [Step([(1.0, lo)], [(1.0, hi)])
            for lo, hi in zip(chain, chain[1:])]


def _build_eq22(f, p):
    beta = p["beta"]
    mid = (1.0 - beta) * geo_grid(f) + beta * heinz_grid(f, 0.25)
    return _convex_chain(f, p, [mid])


def _build_eq23(f, p):
    beta = p["beta"]
    mid = (1.0 - beta) * heinz_grid(f, 3 / 8) + beta * heinz_grid(f, 0.25)
    return _convex_chain(f, p, [mid])


def _build_eq27(f, p):
    beta = p["beta"]
    mid = (1.0 - beta) * heinz_grid(f, 5 / 16) + beta * heinz_grid(f, 0.25)
    return _convex_chain(f, p, [mid])


def _build_eq28(f, p):
    beta, gamma = p["beta"], p["gamma"]
    h38 = heinz_grid(f, 3 / 8)
    mid1 = (1.0 - gamma) * h38 + gamma * heinz_grid(f, 5 / 16)
    mid2 = (1.0 - beta) * h38 + beta * heinz_grid(f, 0.25)
    return _convex_chain(f, p, [mid1, mid2])


def _build_eq29(f, p):
    m1 = 0.5 * (heinz_grid(f, 1 / 8) + heinz_grid(f, 3 / 8))
    m2 = 0.5 * (heinz_grid(f, 0.25) + heron_grid(f, 0.5))
    return _convex_chain(f, p, [m1, integral_grid(f), m2])


def _make_avg_builder(lo, hi, factor):
    def build(f, p):
        avg = nu_average_grid(f, lo, hi)
        return [Step([(1.0, avg)], [(factor, heron_grid(f, p["alpha"]))])]
    return build


def _build_eq210(f, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    lhs = p_sum_grid(f, r, pw)
    # A^p X + X B^p + t (A^nu X B^(p-nu) + A^(p-nu) X B^nu)
    rhs = p_sum_grid(f, pw, pw) + t * p_sum_grid(f, nu, pw)
    return [Step([(1.0 + t, lhs)], [(1.0, rhs)])]


def _build_eq211(f, p):
    # perturbation written as t (A^(p-nu) X B^nu - A^nu X B^(p-nu)) so the
    # underlying kernel is sinh(pD) + t sinh((p-2 nu)D) for nu <= p/2
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    lhs = p_diff_grid(f, r, pw)
    rhs = p_diff_grid(f, pw, pw) + t * p_diff_grid(f, pw - nu, pw)
    return [Step([(1.0 + t, lhs)], [(abs(pw - 2.0 * r), rhs)])]


def _build_eq212(f, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    big = p_sum_grid(f, r, pw)
    small = p_sum_grid(f, pw, pw) + t * p_sum_grid(f, nu, pw)
    return [Step([(1.0, small)], [(1.0 + t, big)])]


def _build_eq213(f, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    big = p_diff_grid(f, r, pw)
    small = p_diff_grid(f, pw, pw) + t * p_diff_grid(f, nu, pw)
    factor = ((1.0 + t) * pw - 2.0 * t * nu) / (pw - 2.0 * r)
    return [Step([(1.0, small)], [(factor, big)])]


F_NU_GRID_POINTS = 41


def _build_f_nu_shape(f, p):
    pw = p["p"]
    grid = np.linspace(pw / 2.0 - 1.0, pw / 2.0 + 1.0, F_NU_GRID_POINTS)
    mats = [p_sum_grid(f, nu, pw) for nu in grid]
    center = F_NU_GRID_POINTS // 2
    steps = []
    # nonincreasing left of p/2, nondecreasing right of it
    for i in range(center):
        steps.append(Step([(1.0, mats[i + 1])], [(1.0, mats[i])]))
    for i in range(center, F_NU_GRID_POINTS - 1):
        steps.append(Step([(1.0, mats[i])], [(1.0, mats[i + 1])]))
    # midpoint convexity on consecutive triples
    for i in range(1, F_NU_GRID_POINTS - 1):
        steps.append(Step([(2.0, mats[i])],
                          [(1.0, mats[i - 1]), (1.0, mats[i + 1])]))
    return steps


# ---------------------------------------------------------------------------
# Samplers

def _sample_prop(rng, kind):
    sinh, combo = RATIONAL_FAMILIES[kind]
    s2 = float(rng.uniform(0.0, 2.0 if sinh else 1.0))
    lo = max(s2, 2.0 - s2) if sinh else s2
    s1 = float(rng.uniform(lo, lo + 1.0))
    m = 0.5 * (s1 + s2)
    p = {"s1": s1, "s2": s2, "r": float(rng.uniform(-m, m))}
    if combo:
        p["rp"] = float(rng.uniform(-m, m))
        p["alpha"] = float(rng.uniform(0.0, 1.0))
        p["beta"] = float(rng.uniform(0.5, 1.0))
    else:
        p["t"] = float(rng.uniform(-0.999, 1.0))
    return p


def _sample_eq210(rng):
    pw = float(rng.uniform(0.05, 2.0))
    nu = float(rng.uniform(0.0, pw))
    r = float(rng.uniform(nu / 2.0, pw / 2.0))
    return {"p": pw, "nu": nu, "r": r, "t": float(rng.uniform(-1.0, 1.0))}


def _sample_eq211(rng):
    pw = float(rng.uniform(1.0, 3.0))
    nu = float(rng.uniform(0.0, min(pw / 2.0, pw - 1.0)))
    r = float(rng.uniform(nu / 2.0, pw / 2.0))
    return {"p": pw, "nu": nu, "r": r, "t": float(rng.uniform(-1.0, 1.0))}


def _sample_eq212(rng):
    r = float(rng.uniform(-1.5, 0.0))
    pw = float(rng.uniform(0.05, 2.0))
    nu = float(rng.uniform(r, pw / 2.0))
    return {"p": pw, "nu": nu, "r": r, "t": float(rng.uniform(0.0, 8.0))}


def _window_sampler(nu_lo, nu_hi, beta=False, gamma=False):
    def sample(rng):
        p = {"nu": float(rng.uniform(nu_lo, nu_hi)),
             "alpha": _sample_alpha(rng)}
        if beta:
            p["beta"] = float(rng.uniform(0.5, 1.0))
        if gamma:
            p["gamma"] = float(rng.uniform(0.5, 1.0))
        return p
    return sample


# ---------------------------------------------------------------------------
# Registry

_PROP_KINDS = {f"prop2.1-{i}": k for i, k in enumerate(RATIONAL_FAMILIES, 1)}


def _prop_case(cid, kind) -> InequalityCase:
    # the sampler produces exactly the kernel family's parameters
    def build(f, p):
        spec = KernelSpec(kind, p)
        return [Step([(1.0, kernel_grid(f, spec))], [(1.0, geo_grid(f))])]
    return InequalityCase(cid, {}, lambda rng: _sample_prop(rng, kind), build,
                          f"sampled contractivity of the {kind} kernel family")


def _build_registry() -> dict[str, InequalityCase]:
    cases = [
        InequalityCase(
            "eq1.1", {"nu": (0.25, 0.75), "t": (-2.0, 2.0)},
            lambda rng: {"nu": float(rng.uniform(0.25, 0.75)),
                         "t": float(rng.uniform(-1.999, 2.0))},
            _build_eq11,
            "un-halved Heinz sum vs weighted arithmetic/geometric mix"),
        InequalityCase(
            "eq1.2", {"nu": (0.25, 0.75), "alpha": (0.5, np.inf)},
            _window_sampler(0.25, 0.75), _build_eq12,
            "Heinz mean dominated by Heron mean"),
        InequalityCase(
            "eq1.3", {"nu": (0.25, 0.75), "alpha": (0.5, np.inf)},
            _window_sampler(0.25, 0.75), _build_eq13,
            "geometric <= Heinz <= Heron chain"),
        InequalityCase(
            "refAli", {"nu": (0.25, 0.75), "alpha": (0.5, np.inf)},
            _window_sampler(0.25, 0.75), _build_ref_ali,
            "convex refinement with weight 4 r0 - 1"),
        InequalityCase(
            "eq1.4-chain", {"alpha": (0.5, np.inf)},
            lambda rng: {"alpha": _sample_alpha(rng)}, _build_eq14_chain,
            "geometric <= integral mean <= Heron"),
        InequalityCase(
            "eq1.4-alpha-mono", {},
            lambda rng: {}, _build_alpha_mono,
            "Heron norm nondecreasing in alpha past 1/2"),
        InequalityCase(
            "eq2.2", {"nu": (3 / 8, 5 / 8), "beta": (0.5, 1.0),
                      "alpha": (0.5, np.inf)},
            _window_sampler(3 / 8, 5 / 8, beta=True), _build_eq22,
            "interpolant (1-b) geometric + b H_{1/4}"),
        InequalityCase(
            "eq2.3", {"nu": (5 / 16, 11 / 16), "beta": (0.5, 1.0),
                      "alpha": (0.5, np.inf)},
            _window_sampler(5 / 16, 11 / 16, beta=True), _build_eq23,
            "interpolant (1-b) H_{3/8} + b H_{1/4}"),
        InequalityCase(
            "eq2.7", {"nu": (9 / 32, 23 / 32), "beta": (0.5, 1.0),
                      "alpha": (0.5, np.inf)},
            _window_sampler(9 / 32, 23 / 32, beta=True), _build_eq27,
            "interpolant (1-b) H_{5/16} + b H_{1/4}"),
        InequalityCase(
            "eq2.8", {"nu": (11 / 32, 21 / 32), "beta": (0.5, 1.0),
                      "gamma": (0.5, 1.0), "alpha": (0.5, np.inf)},
            _window_sampler(11 / 32, 21 / 32, beta=True, gamma=True),
            _build_eq28,
            "double interpolant chain"),
        InequalityCase(
            "eq2.9", {"nu": (0.25, 0.75), "alpha": (0.5, np.inf)},
            _window_sampler(0.25, 0.75), _build_eq29,
            "four-step refinement through the integral mean"),
        InequalityCase(
            "avg-12", {"alpha": (0.5, np.inf)},
            lambda rng: {"alpha": _sample_alpha(rng)},
            _make_avg_builder(0.25, 0.75, 0.5),
            "nu-average over [1/4, 3/4] vs (1/2) Heron"),
        InequalityCase(
            "avg-14", {"alpha": (0.5, np.inf)},
            lambda rng: {"alpha": _sample_alpha(rng)},
            _make_avg_builder(3 / 8, 5 / 8, 0.25),
            "nu-average over [3/8, 5/8] vs (1/4) Heron"),
        InequalityCase(
            "avg-716", {"alpha": (0.5, np.inf)},
            lambda rng: {"alpha": _sample_alpha(rng)},
            _make_avg_builder(9 / 32, 23 / 32, 7 / 16),
            "nu-average over [9/32, 23/32] vs (7/16) Heron"),
        InequalityCase(
            "avg-516", {"alpha": (0.5, np.inf)},
            lambda rng: {"alpha": _sample_alpha(rng)},
            _make_avg_builder(11 / 32, 21 / 32, 5 / 16),
            "nu-average over [11/32, 21/32] vs (5/16) Heron"),
        InequalityCase(
            "eq2.10", {"t": (-1.0, 1.0)},
            _sample_eq210, _build_eq210,
            "(1+t) p-Heinz sum vs endpoint sum plus t perturbation"),
        InequalityCase(
            "eq2.11", {"t": (-1.0, 1.0)},
            _sample_eq211, _build_eq211,
            "p-Heinz difference vs |p-2r| scaled endpoint difference"),
        InequalityCase(
            "eq2.12", {"t": (0.0, np.inf)},
            _sample_eq212, _build_eq212,
            "reversed sum inequality for r <= 0 <= p"),
        InequalityCase(
            "eq2.13", {"t": (0.0, np.inf)},
            _sample_eq212, _build_eq213,
            "reversed difference inequality with the (p, nu, r) factor"),
        InequalityCase(
            "f-nu-shape", {"p": (0.5, 2.0)},
            lambda rng: {"p": float(rng.uniform(0.5, 2.0))},
            _build_f_nu_shape,
            "nu profile of the p-Heinz sum norm: V-shape and convexity"),
    ]
    cases += [_prop_case(cid, kind) for cid, kind in _PROP_KINDS.items()]
    return {c.id: c for c in cases}


REGISTRY = _build_registry()
CASE_IDS = tuple(REGISTRY)


def get_case(case_id: str) -> InequalityCase:
    try:
        return REGISTRY[case_id]
    except KeyError:
        raise UnknownCaseError(f"unknown case {case_id!r}") from None


# ---------------------------------------------------------------------------
# Suite runner

@dataclass
class CaseResult:
    id: str
    min_margin: float = np.inf
    violations: int = 0
    worst_seed: list = field(default_factory=lambda: [0, 0])
    steps: list = field(default_factory=list)
    numerical_failures: int = 0  # normalized margins that are NaN or inf

    def to_dict(self) -> dict:
        return {"id": self.id, "minMargin": self.min_margin,
                "violations": self.violations, "worstSeed": self.worst_seed,
                "steps": self.steps,
                "numericalFailures": self.numerical_failures}

    @classmethod
    def from_dict(cls, d: dict) -> "CaseResult":
        return cls(d["id"], d["minMargin"], d["violations"],
                   list(d["worstSeed"]), list(d["steps"]),
                   d.get("numericalFailures", 0))

    def merge(self, other: "CaseResult") -> None:
        if other.min_margin < self.min_margin:
            self.min_margin = other.min_margin
            self.worst_seed = other.worst_seed
        self.violations += other.violations
        self.numerical_failures += other.numerical_failures
        self.steps = [min(s, o) for s, o in zip(self.steps, other.steps)]


@dataclass
class VerificationReport:
    seed: int
    dims: list
    samples: int
    tolerance: float
    cases: list
    elapsed_seconds: float = 0.0

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.cases)

    @property
    def total_numerical_failures(self) -> int:
        return sum(c.numerical_failures for c in self.cases)

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {"seed": self.seed, "dims": list(self.dims),
             "samples": self.samples, "tolerance": self.tolerance,
             "cases": [c.to_dict() for c in self.cases]}
        if include_timing:
            d["elapsedSeconds"] = self.elapsed_seconds
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(d["seed"], list(d["dims"]), d["samples"], d["tolerance"],
                   [CaseResult.from_dict(c) for c in d["cases"]],
                   d.get("elapsedSeconds", 0.0))


def _draw(rng, dim: int, logs) -> tuple:
    """One instance's draws from ``rng``, in this order: A log-eigenvalues,
    A Gaussian, B log-eigenvalues, B Gaussian and X Gaussian."""
    shape = (2, dim, dim)
    return (rng.uniform(*logs, size=dim), rng.standard_normal(shape),
            rng.uniform(*logs, size=dim), rng.standard_normal(shape),
            rng.standard_normal(shape))


def _stack(draws) -> tuple:
    """(A eigenvalues, U_A, B eigenvalues, U_B, X) stacks of some
    instances' draws, the unitaries from one batched QR."""
    la, ga, lb, gb, gx = (np.array(z) for z in zip(*draws))
    ua, ub = gaussian_unitary(complex_gaussian(np.stack([ga, gb])))
    return np.exp(la), ua, np.exp(lb), ub, complex_gaussian(gx)


def _draw_stack(seed: int, case_index: int, dim: int, samples,
                condition_range):
    """Stacked instances (A eigenvalues, U_A, B eigenvalues, U_B, X) of
    some samples of a (case, dim) cell.  Each sample draws from its own
    stream, which is returned positioned for the case's parameter
    sampler."""
    logs = log_range(condition_range)
    rngs = [np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(case_index, dim, sample))) for sample in samples]
    return _stack([_draw(rng, dim, logs) for rng in rngs]), rngs


def make_instance(seed: int, case_index: int, dim: int, sample: int,
                  condition_range=DEFAULT_CONDITION_RANGE
                  ) -> tuple[InstanceTriple, np.random.Generator]:
    """Instance and parameter stream for one (case, dim, sample) cell.

    Counter-derived from the master seed, so any subset of the suite
    reproduces exactly the same instances.
    """
    (ea, ua, eb, ub, x), (rng,) = _draw_stack(seed, case_index, dim,
                                              [sample], condition_range)
    return InstanceTriple(HpdMatrix.from_spectrum(ea[0], ua[0]),
                          HpdMatrix.from_spectrum(eb[0], ub[0]), x[0]), rng


# Samples evaluated together: the stacks of a block take memory linear in
# its size (f-nu-shape holds 41 grids), so a cell goes block by block.
CELL_BLOCK = 256


def _run_block(case: InequalityCase, case_index: int, dim: int, samples,
               seed: int, tolerance: float, condition_range) -> CaseResult:
    """Some samples of one (case, dim) cell, evaluated as one frame stack
    with per-sample parameters as (samples, 1, 1) arrays."""
    (ea, ua, eb, ub, x), rngs = _draw_stack(seed, case_index, dim, samples,
                                            condition_range)
    params = [case.sampler(rng) for rng in rngs]
    params = {k: np.array([p[k] for p in params])[:, None, None]
              for k in params[0]}
    margins, scales = _margins(
        case, Frame(ea, eb, adjoint(ua) @ x @ ub), params)
    normalized = np.array([np.min(m, axis=-1) / s
                           for m, s in zip(margins, scales)])
    # NaN or infinite margins count as numerical failures, neither a pass
    # nor a violation, and stay out of the minima
    finite = np.isfinite(normalized)
    clean = np.where(finite, normalized, np.inf)
    worst = clean.min(axis=0)
    i = int(np.argmin(worst))
    return CaseResult(case.id, float(worst[i]),
                      int(np.count_nonzero(clean < -tolerance)),
                      [dim, samples[i]] if worst[i] < np.inf else [0, 0],
                      clean.min(axis=1).tolist(),
                      int(np.count_nonzero(~finite)))


def _run_case_dim(args) -> CaseResult:
    """All samples of one (case, dim) cell, CELL_BLOCK at a time."""
    case_id, case_index, dim, samples, *rest = args
    result, *others = (_run_block(REGISTRY[case_id], case_index, dim,
                                  range(lo, min(lo + CELL_BLOCK, samples)),
                                  *rest)
                       for lo in range(0, samples, CELL_BLOCK))
    for other in others:
        result.merge(other)
    return result


def run_suite(dims, samples: int, seed: int,
              tolerance: float = DEFAULT_TOLERANCE,
              case_ids=None,
              condition_range=DEFAULT_CONDITION_RANGE,
              workers: int = 1) -> VerificationReport:
    """Sample every requested case over every dimension and report the
    worst normalized Ky Fan margins.  Deterministic given the seed, and
    the same for any number of worker processes."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if case_ids is None:
        case_ids = list(CASE_IDS)
    for cid in case_ids:
        get_case(cid)

    start = time.perf_counter()
    tasks = [(cid, CASE_IDS.index(cid), dim, samples, seed, tolerance,
              tuple(condition_range))
             for cid in case_ids for dim in dims]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_case_dim, tasks))
    else:
        partials = [_run_case_dim(t) for t in tasks]

    by_case: dict[str, CaseResult] = {}
    for partial in partials:
        if partial.id in by_case:
            by_case[partial.id].merge(partial)
        else:
            by_case[partial.id] = partial
    cases = [by_case[cid] for cid in case_ids]
    elapsed = time.perf_counter() - start
    return VerificationReport(seed, list(dims), samples, tolerance,
                              cases, elapsed)


# ---------------------------------------------------------------------------
# Fuzzer

@dataclass
class FuzzFinding:
    case_id: str
    params: dict
    margin: float
    normalized_margin: float
    violation: bool
    instance: InstanceTriple
    evaluations: int


def _instance_margin(case, frame: Frame, params) -> tuple:
    """Worst raw and normalized margins over all steps and Ky Fan orders
    of a frame: numbers for one instance, arrays for a stack.  A NaN
    margin makes the worst one NaN."""
    margins, scales = _margins(case, frame, params)
    worst = [np.min(m, axis=-1) for m in margins]
    return (np.min(worst, axis=0),
            np.min([w / s for w, s in zip(worst, scales)], axis=0))


def _rank(raw):
    """A NaN or infinite margin ranks as +inf, so a finite one beats it."""
    return np.where(np.isfinite(raw), raw, np.inf)


def fuzz(case: InequalityCase, overrides: dict, budget: int,
         rng: np.random.Generator, dim: int = 1,
         tolerance: float = DEFAULT_TOLERANCE) -> FuzzFinding:
    """Hunt for negative margins: random restarts followed by coordinate
    descent on log-eigenvalues and the entries of X.  Overrides must name
    parameters that the case's sampler produces.

    The restarts are drawn one after another from ``rng`` and evaluated
    as frame stacks, CELL_BLOCK at a time; the first with the lowest rank
    starts the descent, whose candidates are each scored on a frame."""
    params = dict(case.sampler(rng))
    unknown = sorted(set(overrides) - set(params))
    if unknown:
        raise UnknownParameterError(
            f"{case.id} has no parameter {', '.join(unknown)}; "
            f"it takes {', '.join(sorted(params)) or 'none'}")
    params.update(overrides)

    logs = log_range(FUZZ_CONDITION_RANGE)
    n_random = max(1, budget // 3)
    best = None  # (raw, normalized, loga, logb, va, vb, x)
    for lo in range(0, n_random, CELL_BLOCK):
        count = min(CELL_BLOCK, n_random - lo)
        ea, ua, eb, ub, xs = _stack([_draw(rng, dim, logs)
                                     for _ in range(count)])
        (ea, ua), (eb, ub) = descending(ea, ua), descending(eb, ub)
        raws, norms = _instance_margin(
            case, Frame(ea, eb, adjoint(ua) @ xs @ ub), params)
        i = int(np.argmin(_rank(raws)))
        if best is None or _rank(raws[i]) < _rank(best[0]):
            best = (raws[i], norms[i], np.log(ea[i]), np.log(eb[i]),
                    ua[i], ub[i], xs[i])
    raw, normalized, loga, logb, va, vb, x = best
    evals = n_random

    def score(loga, logb, x):
        nonlocal evals
        evals += 1
        (a, ua), (b, ub) = (descending(np.exp(loga), va),
                            descending(np.exp(logb), vb))
        return _instance_margin(case, Frame(a, b, adjoint(ua) @ x @ ub),
                                params)

    step = 0.5
    x_scale = max(1.0, float(np.max(np.abs(x))))
    while evals < budget and step > 1e-6:
        improved = False
        coords = ([("a", i) for i in range(dim)]
                  + [("b", i) for i in range(dim)]
                  + [("xr", ij) for ij in np.ndindex(dim, dim)]
                  + [("xi", ij) for ij in np.ndindex(dim, dim)])
        for kind, idx in coords:
            if evals >= budget:
                break
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                la, lb, xx = loga.copy(), logb.copy(), x.copy()
                # eigenvalues kept inside e^+-80 so powers never overflow
                if kind == "a":
                    la[idx] = np.clip(la[idx] + sign * step, -80.0, 80.0)
                elif kind == "b":
                    lb[idx] = np.clip(lb[idx] + sign * step, -80.0, 80.0)
                elif kind == "xr":
                    xx[idx] += sign * step * x_scale
                else:
                    xx[idx] += 1j * sign * step * x_scale
                cand_raw, cand_norm = score(la, lb, xx)
                # against the rank, so any finite candidate beats a NaN
                if cand_raw < _rank(raw) - 1e-15:
                    raw, normalized = cand_raw, cand_norm
                    loga, logb, x = la, lb, xx
                    improved = True
                    break
        if not improved:
            step *= 0.5

    inst = InstanceTriple(HpdMatrix.from_spectrum(np.exp(loga), va),
                          HpdMatrix.from_spectrum(np.exp(logb), vb), x)
    return FuzzFinding(case.id, params, float(raw), float(normalized),
                       bool(normalized < -tolerance), inst, evals)
