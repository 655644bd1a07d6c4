"""Registry of the verified norm inequalities, the suite runner and the
out-of-range counterexample fuzzer.

Every inequality is encoded as comparisons: an affine combination of Ky
Fan norms on the left is dominated by one on the right; its margins
(right minus left, one per Ky Fan order) must all be nonnegative up to a
relative tolerance whenever the case parameters satisfy its hypotheses.

Builders write them as kernels g(d) of d = (log a - log b)/2, on the d
grid of a :class:`Frame`, a single instance or a stack: one stack of the
case's distinct kernel grids, and ``Step``s whose terms index into it.
All terms of a case have one degree p, the case's ``p`` parameter or 1
when it has none: a term's Ky Fan norms are those of g(d) o (ab)^(p/2)
o Xt, with the frame's Xt scaled once per case by :meth:`Frame.scaled`.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dmap import (RATIONAL_FAMILIES, KernelSpec, heinz_average,
                   kernel_eval, kernel_in_hypothesis, sinch)
from .errors import (DimMismatchError, RangeViolationError,
                     UnknownCaseError, UnknownParameterError)
from .linalg import (DEFAULT_CONDITION_RANGE, Frame, HpdMatrix, adjoint,
                     complex_gaussian, gaussian_unitary, log_range,
                     random_complex, random_hpd, random_spectra,
                     spawned_streams, svd_values, to_interval, uniform)
from .means import heinz_kernel, heron_kernel, p_diff_kernel, p_sum_kernel
# The matrix-valued means are looked up here by benchmarks/tracer.py.
from .means import (heinz, heinz_nu_average, heinz_p_diff,  # noqa: F401
                    heinz_p_sum, heron, integral_mean)

DEFAULT_TOLERANCE = 1e-9
# the fuzzer's random restarts draw eigenvalues from a wider range
FUZZ_CONDITION_RANGE = (1e-3, 1e3)

# Unbounded alpha ranges are sampled on [1/2, ALPHA_CAP]; the Heron mean
# grows linearly in alpha, so small alpha is the tight regime.
ALPHA_CAP = 10.0

Term = tuple[float, np.ndarray]


@dataclass(frozen=True)
class Step:
    """Comparisons sum c |||G[i] o Xt||| over lhs <= the same over rhs,
    of terms (c, i): a number or per-sample (..., 1, 1) array c and an
    index array i into a grid stack G, all i of a step one length."""
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
    """A case: its hypotheses as ``ranges``, name -> (lo, hi), and those
    that couple parameters as a ``hypothesis`` predicate; a builder of
    its grids and steps.  Without a sampler, it draws each parameter
    uniformly on its range, in the order ``ranges`` lists them, and a
    range open above through ``_sample_alpha``."""
    id: str
    ranges: dict
    builder: object  # (d, params) -> (grid stack, list[Step])
    description: str = ""
    sampler: object = None  # rng -> params dict
    hypothesis: object = None  # params -> bool

    def __post_init__(self):
        if self.sampler is None:
            object.__setattr__(self, "sampler",
                               partial(_sample_ranges, self.ranges))

    def in_range(self, params: dict) -> bool:
        for name, (lo, hi) in self.ranges.items():
            value = params.get(name)
            if value is None or not (lo <= value <= hi):
                return False
        return self.hypothesis is None or bool(self.hypothesis(params))


def step_margins(grids, steps: list[Step], xt=1.0) -> tuple:
    """Ky Fan margins and normalization scales of the steps' comparisons.

    ``grids`` (T, ..., n, n) are kernel grids that multiply ``xt``
    entrywise or, with ``xt`` left at 1, matrices, all in one batched
    SVD; a step weighs one gather of their cumulative sums per term.
    Returns, comparisons in listed order, the margins (comparisons, ...,
    n), right minus left for each Ky Fan order, and the scales
    (comparisons, ...), 1 + |the trace norm of the right side|.
    """
    if np.ndim(xt) and np.shape(grids)[-2:] != np.shape(xt)[-2:]:
        raise DimMismatchError("kernel grids and Xt differ in shape")
    # a NaN or inf grid gets NaN singular values, so that its margins
    # count as numerical failures; cumulative sums (T, ..., 1, n), which
    # coefficients, numbers or per-sample (..., 1, 1) arrays, broadcast on
    fans = np.cumsum(svd_values(grids * xt), -1)[..., None, :]
    margins, scales = [], []
    for step in steps:
        total = sum(c * fans[i] for c, i in step.rhs)
        scales.append(1.0 + np.abs(total[..., 0, -1]))
        for c, i in step.lhs:
            total = total - c * fans[i]
        margins.append(total[..., 0, :])
    return np.concatenate(margins), np.concatenate(scales)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _margins(case: InequalityCase, frame: Frame, params) -> tuple:
    """step_margins of a case's steps on a frame, whose Xt is scaled to
    the case's degree; NaN if an SVD fails.  Overflow and division by
    zero are not warned about: callers count or rank NaN and inf."""
    grids, steps = case.builder(frame.d, params)
    try:
        return step_margins(grids, steps, frame.scaled(params.get("p", 1.0)))
    except np.linalg.LinAlgError:
        count = sum(len(step.rhs[0][1]) for step in steps)
        nan = np.full((count, *np.shape(frame.xt)[:-1]), np.nan)
        return nan, nan[..., 0]


@np.errstate(invalid="ignore")
def _worst_margins(case: InequalityCase, frame: Frame, params) -> tuple:
    """Per comparison, the worst margin over the Ky Fan orders, raw and
    over its scale, as (comparisons, ...) arrays.  An infinite margin
    over an infinite scale is NaN, not warned about."""
    margins, scales = _margins(case, frame, params)
    raw = margins.min(axis=-1)
    return raw, raw / scales


def evaluate(case: InequalityCase, inst: InstanceTriple, params: dict,
             override: bool = False) -> list[np.ndarray]:
    """Per-comparison, per-Ky-Fan-order margins for one instance."""
    if not override and not case.in_range(params):
        raise RangeViolationError(
            f"{case.id}: parameters {params} outside validity ranges")
    return list(_margins(case, Frame.of(inst.a, inst.x, inst.b), params)[0])


# ---------------------------------------------------------------------------
# Builders: (d, params) -> (stack of kernel grids of d, steps into it)

def _leading(values, d) -> np.ndarray:
    """values (k, ...) reshaped to broadcast against d with k on a new
    leading axis, so that one kernel call makes k grids."""
    values = np.asarray(values)
    ones = (1,) * (np.ndim(d) + 1 - values.ndim)
    return values.reshape(values.shape + ones)


def _chain(*kernels) -> tuple:
    """k0 <= k1 <= ... as one single-term Step over their stack."""
    at = np.arange(len(kernels))
    return np.stack(kernels), [Step([(1.0, at[:-1])], [(1.0, at[1:])])]


def _ones(d) -> np.ndarray:
    return np.ones(np.shape(d))


def _heinz(d, p) -> np.ndarray:
    return heinz_kernel(d, p["nu"])


def _heron(d, p) -> np.ndarray:
    return heron_kernel(d, p["alpha"])


def _mix(d, beta, nu0, nu1) -> np.ndarray:
    """(1 - beta) H_nu0 + beta H_nu1; H_{1/2} is the geometric mean."""
    return (1.0 - beta) * heinz_kernel(d, nu0) + beta * heinz_kernel(d, nu1)


def _build_eq11(d, p):
    t = p["t"]
    lhs = p_sum_kernel(d, p["nu"], 1.0)
    rhs = 2.0 * np.cosh(d) + t  # AX + XB + t A^(1/2) X B^(1/2)
    # inf at t = -2, where the weight's pole makes the margins non-finite
    return (np.stack([lhs, rhs]),
            [Step([(1.0, [0])], [(np.divide(2.0, 2.0 + t), [1])])])


def _build_ref_ali(d, p):
    nu = p["nu"]
    r0 = np.minimum(nu, 1.0 - nu)
    grids = np.stack([heinz_kernel(d, nu), _ones(d), _heron(d, p)])
    return grids, [Step([(1.0, [0])], [(4.0 * r0 - 1.0, [1]),
                                       (2.0 * (1.0 - 2.0 * r0), [2])])]


ALPHA_MONO_GRID = tuple(np.round(np.arange(0.5, 10.01, 0.5), 10))
ALPHA_SMALL_GRID = (0.0, 0.1, 0.2, 0.3, 0.4)


def _build_alpha_mono(d, p):
    # alpha on a leading axis: one cosh(d) for all the Heron grids; the
    # monotone run, then each small alpha against alpha 1/2, grid 0
    herons = heron_kernel(d, _leading(ALPHA_MONO_GRID + ALPHA_SMALL_GRID, d))
    mono, small = np.split(np.arange(len(herons)), [len(ALPHA_MONO_GRID)])
    return herons, [Step([(1.0, mono[:-1])], [(1.0, mono[1:])]),
                    Step([(1.0, small)], [(1.0, 0 * small)])]


def _build_eq29(d, p):
    m1 = 0.5 * (heinz_kernel(d, 1 / 8) + heinz_kernel(d, 3 / 8))
    m2 = 0.5 * (heinz_kernel(d, 0.25) + heron_kernel(d, 0.5))
    return _chain(_heinz(d, p), m1, sinch(d), m2, _heron(d, p))


def _make_avg_builder(lo, hi, factor):
    def build(d, p):
        avg = heinz_average(d, lo, hi)
        return (np.stack([avg, heron_kernel(d, p["alpha"])]),
                [Step([(1.0, [0])], [(factor, [1])])])
    return build


def _build_eq210(d, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    lhs = p_sum_kernel(d, r, pw)
    # A^p X + X B^p + t (A^nu X B^(p-nu) + A^(p-nu) X B^nu)
    rhs = p_sum_kernel(d, pw, pw) + t * p_sum_kernel(d, nu, pw)
    return np.stack([lhs, rhs]), [Step([(1.0 + t, [0])], [(1.0, [1])])]


def _build_eq211(d, p):
    # perturbation written as t (A^(p-nu) X B^nu - A^nu X B^(p-nu)) so the
    # underlying kernel is sinh(pD) + t sinh((p-2 nu)D) for nu <= p/2
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    lhs = p_diff_kernel(d, r, pw)
    rhs = p_diff_kernel(d, pw, pw) + t * p_diff_kernel(d, pw - nu, pw)
    return (np.stack([lhs, rhs]),
            [Step([(1.0 + t, [0])], [(abs(pw - 2.0 * r), [1])])])


def _build_eq212(d, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    big = p_sum_kernel(d, r, pw)
    small = p_sum_kernel(d, pw, pw) + t * p_sum_kernel(d, nu, pw)
    return np.stack([small, big]), [Step([(1.0, [0])], [(1.0 + t, [1])])]


def _build_eq213(d, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    big = p_diff_kernel(d, r, pw)
    small = p_diff_kernel(d, pw, pw) + t * p_diff_kernel(d, nu, pw)
    # +-inf or NaN at p = 2r: non-finite margins, as for any pole
    factor = np.divide((1.0 + t) * pw - 2.0 * t * nu, pw - 2.0 * r)
    return np.stack([small, big]), [Step([(1.0, [0])], [(factor, [1])])]


F_NU_GRID_POINTS = 41
# f(nu) = |||A^nu X B^(p-nu) + A^(p-nu) X B^nu||| is symmetric about p/2:
# node i of the 41 has grid min(i, 40 - i) of the 21 nodes nu <= p/2, so
# a right-half comparison reads its left-half mirror's grids in its order:
# of two neighbours the outer first, of a node's neighbours the lower.
F_NU_NODE = np.minimum(np.arange(F_NU_GRID_POINTS),
                       np.arange(F_NU_GRID_POINTS)[::-1])
_F_NU_PAIRS = np.sort([F_NU_NODE[:-1], F_NU_NODE[1:]], axis=0)
_F_NU_NEIGHBOURS = np.sort([F_NU_NODE[:-2], F_NU_NODE[2:]], axis=0)


def _build_f_nu_shape(d, p):
    # nonincreasing toward p/2 between neighbours, and midpoint convex
    # on consecutive triples
    pw = p["p"]
    grid = np.linspace(pw / 2.0 - 1.0, pw / 2.0 + 1.0, F_NU_GRID_POINTS)
    # the nodes nu <= p/2 on a leading axis, in one call
    grids = p_sum_kernel(
        d, _leading(grid[:F_NU_GRID_POINTS // 2 + 1], d), pw)
    (outer, inner), sides = _F_NU_PAIRS, _F_NU_NEIGHBOURS
    return grids, [Step([(1.0, inner)], [(1.0, outer)]),
                   Step([(2.0, F_NU_NODE[1:-1])], [(1.0, i) for i in sides])]


# ---------------------------------------------------------------------------
# Samplers

def _sample_alpha(rng, lo=0.5) -> float:
    # boundary point drawn with positive probability
    if uniform(rng, 0.0, 1.0) < 0.1:
        return lo
    return uniform(rng, lo, ALPHA_CAP)


def _sample_ranges(ranges: dict, rng) -> dict:
    return {name: _sample_alpha(rng, lo) if hi == np.inf
            else uniform(rng, lo, hi) for name, (lo, hi) in ranges.items()}


def _sample_prop(rng, kind):
    sinh, combo = RATIONAL_FAMILIES[kind]
    s2 = uniform(rng, 0.0, 2.0 if sinh else 1.0)
    lo = max(s2, 2.0 - s2) if sinh else s2
    s1 = uniform(rng, lo, lo + 1.0)
    m = 0.5 * (s1 + s2)
    p = {"s1": s1, "s2": s2, "r": uniform(rng, -m, m)}
    if combo:
        p["rp"] = uniform(rng, -m, m)
        p["alpha"] = uniform(rng, 0.0, 1.0)
        p["beta"] = uniform(rng, 0.5, 1.0)
    else:
        p["t"] = uniform(rng, -0.999, 1.0)
    return p


def _sample_eq210(rng):
    pw = uniform(rng, 0.05, 2.0)
    nu = uniform(rng, 0.0, pw)
    r = uniform(rng, nu / 2.0, pw / 2.0)
    return {"p": pw, "nu": nu, "r": r, "t": uniform(rng, -1.0, 1.0)}


def _sample_eq211(rng):
    pw = uniform(rng, 1.0, 3.0)
    nu = uniform(rng, 0.0, min(pw / 2.0, pw - 1.0))
    r = uniform(rng, nu / 2.0, pw / 2.0)
    return {"p": pw, "nu": nu, "r": r, "t": uniform(rng, -1.0, 1.0)}


def _sample_eq212(rng):
    r = uniform(rng, -1.5, 0.0)
    pw = uniform(rng, 0.05, 2.0)
    nu = uniform(rng, r, pw / 2.0)
    return {"p": pw, "nu": nu, "r": r, "t": uniform(rng, 0.0, 8.0)}


# ---------------------------------------------------------------------------
# Registry

_PROP_KINDS = {f"prop2.1-{i}": k for i, k in enumerate(RATIONAL_FAMILIES, 1)}


def _prop_case(cid, kind) -> InequalityCase:
    # the sampler produces exactly the kernel family's parameters
    return InequalityCase(
        cid, {}, lambda d, p: _chain(kernel_eval(KernelSpec(kind, p), d),
                                     _ones(d)),
        f"sampled contractivity of the {kind} kernel family",
        lambda rng: _sample_prop(rng, kind),
        lambda p: kernel_in_hypothesis(KernelSpec(kind, p))["abs"])


def _build_registry() -> dict[str, InequalityCase]:
    # the Heinz window nu in [1/4, 3/4] and the Heron alpha >= 1/2
    window = {"nu": (0.25, 0.75), "alpha": (0.5, np.inf)}
    alpha = {"alpha": (0.5, np.inf)}
    cases = [
        InequalityCase(
            "eq1.1", {"nu": (0.25, 0.75), "t": (-2.0, 2.0)}, _build_eq11,
            "un-halved Heinz sum vs weighted arithmetic/geometric mix",
            # off the weight's pole at t = -2
            lambda rng: {"nu": uniform(rng, 0.25, 0.75),
                         "t": uniform(rng, -1.999, 2.0)}),
        InequalityCase(
            "eq1.2", window, lambda d, p: _chain(_heinz(d, p), _heron(d, p)),
            "Heinz mean dominated by Heron mean"),
        InequalityCase(
            "eq1.3", window,
            lambda d, p: _chain(_ones(d), _heinz(d, p), _heron(d, p)),
            "geometric <= Heinz <= Heron chain"),
        InequalityCase(
            "refAli", window, _build_ref_ali,
            "convex refinement with weight 4 r0 - 1"),
        InequalityCase(
            "eq1.4-chain", alpha,
            lambda d, p: _chain(_ones(d), sinch(d), _heron(d, p)),
            "geometric <= integral mean <= Heron"),
        InequalityCase(
            "eq1.4-alpha-mono", {}, _build_alpha_mono,
            "Heron norm nondecreasing in alpha past 1/2"),
        InequalityCase(
            "eq2.2", {"nu": (3 / 8, 5 / 8), "alpha": (0.5, np.inf),
                      "beta": (0.5, 1.0)},
            lambda d, p: _chain(_heinz(d, p), _mix(d, p["beta"], 0.5, 0.25),
                                _heron(d, p)),
            "interpolant (1-b) geometric + b H_{1/4}"),
        InequalityCase(
            "eq2.3", {"nu": (5 / 16, 11 / 16), "alpha": (0.5, np.inf),
                      "beta": (0.5, 1.0)},
            lambda d, p: _chain(_heinz(d, p), _mix(d, p["beta"], 3 / 8, 0.25),
                                _heron(d, p)),
            "interpolant (1-b) H_{3/8} + b H_{1/4}"),
        InequalityCase(
            "eq2.7", {"nu": (9 / 32, 23 / 32), "alpha": (0.5, np.inf),
                      "beta": (0.5, 1.0)},
            lambda d, p: _chain(_heinz(d, p), _mix(d, p["beta"], 5 / 16, 0.25),
                                _heron(d, p)),
            "interpolant (1-b) H_{5/16} + b H_{1/4}"),
        InequalityCase(
            "eq2.8", {"nu": (11 / 32, 21 / 32), "alpha": (0.5, np.inf),
                      "beta": (0.5, 1.0), "gamma": (0.5, 1.0)},
            lambda d, p: _chain(_heinz(d, p),
                                _mix(d, p["gamma"], 3 / 8, 5 / 16),
                                _mix(d, p["beta"], 3 / 8, 0.25), _heron(d, p)),
            "double interpolant chain"),
        InequalityCase(
            "eq2.9", window, _build_eq29,
            "four-step refinement through the integral mean"),
        InequalityCase(
            "avg-12", alpha, _make_avg_builder(0.25, 0.75, 0.5),
            "nu-average over [1/4, 3/4] vs (1/2) Heron"),
        InequalityCase(
            "avg-14", alpha, _make_avg_builder(3 / 8, 5 / 8, 0.25),
            "nu-average over [3/8, 5/8] vs (1/4) Heron"),
        InequalityCase(
            "avg-716", alpha, _make_avg_builder(9 / 32, 23 / 32, 7 / 16),
            "nu-average over [9/32, 23/32] vs (7/16) Heron"),
        InequalityCase(
            "avg-516", alpha, _make_avg_builder(11 / 32, 21 / 32, 5 / 16),
            "nu-average over [11/32, 21/32] vs (5/16) Heron"),
        InequalityCase(
            "eq2.10", {"t": (-1.0, 1.0)}, _build_eq210,
            "(1+t) p-Heinz sum vs endpoint sum plus t perturbation",
            # nu in [0, p] and r in [nu/2, p/2]
            _sample_eq210, lambda p: 0.0 <= p["nu"] <= 2.0 * p["r"] <= p["p"]),
        InequalityCase(
            "eq2.11", {"t": (-1.0, 1.0)}, _build_eq211,
            "p-Heinz difference vs |p-2r| scaled endpoint difference",
            _sample_eq211),
        InequalityCase(
            "eq2.12", {"t": (0.0, np.inf)}, _build_eq212,
            "reversed sum inequality for r <= 0 <= p", _sample_eq212),
        InequalityCase(
            "eq2.13", {"t": (0.0, np.inf)}, _build_eq213,
            "reversed difference inequality with the (p, nu, r) factor",
            _sample_eq212),
        InequalityCase(
            "f-nu-shape", {"p": (0.5, 2.0)}, _build_f_nu_shape,
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

    def to_dict(self) -> dict:
        return {"seed": self.seed, "dims": list(self.dims),
                "samples": self.samples, "tolerance": self.tolerance,
                "cases": [c.to_dict() for c in self.cases],
                "elapsedSeconds": self.elapsed_seconds}

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(d["seed"], list(d["dims"]), d["samples"], d["tolerance"],
                   [CaseResult.from_dict(c) for c in d["cases"]],
                   d.get("elapsedSeconds", 0.0))


def make_instance(seed: int, case_index: int, dim: int, sample: int,
                  condition_range=DEFAULT_CONDITION_RANGE
                  ) -> tuple[InstanceTriple, np.random.Generator]:
    """Instance and parameter stream for one (case, dim, sample) cell.

    Counter-derived from the master seed, so any subset of the suite
    reproduces exactly the same instances: the stream, draws and QR are
    those of the suite's draw passes.
    """
    if not 0 <= case_index < len(CASE_IDS):
        raise ValueError(f"no case at index {case_index}")
    rng, = spawned_streams(seed, [(case_index, dim, sample)])
    return InstanceTriple(random_hpd(dim, rng, condition_range),
                          random_hpd(dim, rng, condition_range),
                          random_complex(dim, rng)), rng


# Instances drawn and evaluated together: a stack takes memory linear in
# its size (f-nu-shape holds 21 grids), so suite cells and fuzz restarts
# and moves are cut into pieces of at most CELL_BLOCK by _blocks.
CELL_BLOCK = 256


def _blocks(n: int) -> list[range]:
    """range(n) cut into consecutive pieces of at most CELL_BLOCK."""
    return [range(lo, min(lo + CELL_BLOCK, n))
            for lo in range(0, n, CELL_BLOCK)]


def _draw_pass(seed: int, dim: int, cells, condition_range) -> list:
    """Blocks (samples, frame, params) of some (case id, samples) pieces
    of cells of one dim, drawn in one pass.  Every sample's stream is
    derived at once and draws in turn, the instance into rows of the
    pass arrays and then the case's sampler; the pass ends with one map
    of u to the log range, one batched QR, one rotation U_A* X U_B and
    one Frame, whose slices are the pieces' frames."""
    streams = spawned_streams(seed, [(CASE_IDS.index(cid), dim, sample)
                                     for cid, samples in cells
                                     for sample in samples])
    ends = np.cumsum([len(samples) for _, samples in cells])
    k = int(ends[-1])
    u = np.empty((2, k, dim))
    # Gaussians of A, B and X: B's and X's are adjacent in a stream
    g = np.empty((k, 3, 2, dim, dim))
    rows = zip(streams, u[0], u[1], g)
    params = []
    for cid, samples in cells:
        sampler = REGISTRY[cid].sampler
        params.append([])
        # samples first, so that zip takes no stream past the piece's last
        for _, (rng, ua, ub, gs) in zip(samples, rows):
            # the draws of random_hpd twice, then of random_complex
            rng.random(out=ua)
            rng.standard_normal(out=gs[0])
            rng.random(out=ub)
            rng.standard_normal(out=gs[1:])
            params[-1].append(sampler(rng))
    ea, eb = np.exp(to_interval(u, *log_range(condition_range)))
    q = gaussian_unitary(complex_gaussian(g[:, :2]))
    x = complex_gaussian(g[:, 2])
    frame = Frame(ea, eb, adjoint(q[:, 0]) @ x @ q[:, 1])
    return [(samples, frame[end - len(samples):end], p)
            for (_, samples), p, end in zip(cells, params, ends)]


def _run_case_dim(task) -> CaseResult:
    """One drawn piece of a (case, dim) cell from task (case id,
    tolerance, dim, samples, frame, params), evaluated as one frame stack
    with per-sample parameters as (samples, 1, 1) arrays.  A cell of at
    most CELL_BLOCK samples is one piece, so this runs once per cell;
    a larger cell runs it once per piece."""
    # benchmarks/ times this call per cell and reads task[0] and task[2]
    case_id, tolerance, dim, samples, frame, params = task
    params = {k: np.array([p[k] for p in params])[:, None, None]
              for k in params[0]}
    normalized = _worst_margins(REGISTRY[case_id], frame, params)[1]
    # NaN or infinite margins count as numerical failures, neither a pass
    # nor a violation, and stay out of the minima
    finite = np.isfinite(normalized)
    clean = np.where(finite, normalized, np.inf)
    worst = clean.min(axis=0)
    i = int(np.argmin(worst))
    return CaseResult(case_id, float(worst[i]),
                      int(np.count_nonzero(clean < -tolerance)),
                      [dim, samples[i]] if worst[i] < np.inf else [0, 0],
                      clean.min(axis=1).tolist(),
                      int(np.count_nonzero(~finite)))


def _run_pass(task) -> list[CaseResult]:
    """Pieces (case id, samples) of one dim, drawn in one pass and scored
    piece by piece."""
    dim, pieces, seed, tolerance, condition_range = task
    return [_run_case_dim((cid, tolerance, dim, *block))
            for (cid, _), block in zip(
                pieces, _draw_pass(seed, dim, pieces, condition_range))]


def run_suite(dims, samples: int, seed: int,
              tolerance: float = DEFAULT_TOLERANCE,
              case_ids=None,
              condition_range=DEFAULT_CONDITION_RANGE,
              workers: int = 1) -> VerificationReport:
    """Sample every requested case over every dimension and report the
    worst normalized Ky Fan margins.  Deterministic given the seed, and
    the same for any number of worker processes.

    Each (case, dim) cell is cut into pieces of at most CELL_BLOCK
    samples; a draw pass holds max(1, CELL_BLOCK // samples) pieces of
    one dim, and each case merges its pieces once, in (dim, sample)
    order."""
    if case_ids is None:
        case_ids = list(CASE_IDS)
    for cid in case_ids:
        get_case(cid)
    # one merged result per case id, one scored cell per (case, dim)
    for name, ids in (("case ids", case_ids), ("dims", dims)):
        if not ids or len(set(ids)) < len(ids):
            raise ValueError(f"{name} must be nonempty, none repeated")
    seed = operator.index(seed)  # a TypeError if not an integer
    if min(samples, *dims) < 1 or seed < 0 or not 0.0 <= tolerance < np.inf:
        raise ValueError("need samples, dims >= 1, a seed >= 0 and a finite "
                         "tolerance >= 0")
    log_range(condition_range)  # raises before any pass is drawn

    start = time.perf_counter()
    per_pass = max(1, CELL_BLOCK // samples)
    pieces = [(cid, r) for cid in case_ids for r in _blocks(samples)]
    tasks = [(dim, pieces[lo:lo + per_pass], seed, tolerance,
              tuple(condition_range))
             for dim in dims for lo in range(0, len(pieces), per_pass)]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            passes = list(pool.map(_run_pass, tasks))
    else:
        passes = [_run_pass(t) for t in tasks]

    cases = {}
    for result in (r for results in passes for r in results):
        first = cases.setdefault(result.id, result)
        if first is not result:
            first.merge(result)
    elapsed = time.perf_counter() - start
    return VerificationReport(seed, list(dims), samples, tolerance,
                              list(cases.values()), elapsed)


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
    raw, normalized = _worst_margins(case, frame, params)
    return raw.min(axis=0), normalized.min(axis=0)


def _rank(raw):
    """A NaN or infinite margin ranks as +inf, so a finite one beats it."""
    return np.where(np.isfinite(raw), raw, np.inf)


def _pack(ea, eb, xt) -> np.ndarray:
    """Frame points z = (log a, log b, Re Xt, Im Xt) of stacked instances,
    one row of 2n + 2n^2 reals each."""
    k = len(xt)
    return np.concatenate([np.log(ea), np.log(eb), xt.real.reshape(k, -1),
                           xt.imag.reshape(k, -1)], axis=1)


def _unpack(z, n: int) -> tuple:
    """(log a, log b, Xt) of the frame points z, as _pack wrote them."""
    k = n * n
    xt = z[..., 2 * n:2 * n + k] + 1j * z[..., 2 * n + k:]
    return z[..., :n], z[..., n:2 * n], xt.reshape(*z.shape[:-1], n, n)


def _score(case, params, z, n: int) -> tuple:
    """Worst raw and normalized margins of the stacked frame points z."""
    la, lb, xt = _unpack(z, n)
    return _instance_margin(case, Frame(np.exp(la), np.exp(lb), xt), params)


def _lowest(case, params, n: int, blocks) -> tuple:
    """(raw, normalized, z, *rest) of the first lowest-ranked point among
    blocks (z, *rest) of at most CELL_BLOCK frame points z and arrays
    rest of per-point data, scored one block per engine call."""
    best = None
    for block in blocks:
        raws, norms = _score(case, params, block[0], n)
        i = int(np.argmin(_rank(raws)))
        if best is None or _rank(raws[i]) < _rank(best[0]):
            best = (raws[i], norms[i], *(a[i] for a in block))
    return best


def fuzz(case: InequalityCase, overrides: dict, budget: int,
         rng: np.random.Generator, dim: int = 1,
         tolerance: float = DEFAULT_TOLERANCE) -> FuzzFinding:
    """Hunt for negative margins: random restarts followed by steepest
    coordinate descent in the joint eigenframe.  Overrides must name
    parameters that the case's sampler produces.

    The restarts are drawn from ``rng`` as block arrays of up to
    CELL_BLOCK instances; the first with the lowest rank starts the
    descent, its eigenvectors U_A and U_B held fixed.  A margin depends
    only on (a, b, Xt) with Xt = U_A* X U_B, so each sweep moves the
    point z = (log a, log b, Re Xt, Im Xt) by +-step along each of its
    coordinates in turn, scaled by max(1, max |Xt_ij|) for Xt, and takes
    the first lowest-ranked of these 2 len(z) moves if it lowers the raw
    margin, else halves the step.  Restarts and moves alike are scored as
    frame stacks of up to CELL_BLOCK points, and the last sweep is cut so
    that the evaluations never exceed the budget.  The witness is
    A = U_A diag(a) U_A*, B likewise and X = U_A Xt U_B*; its margins
    are scored once more as ``evaluate`` scores it (not counted as an
    evaluation), so that a replay gives the finding's bits."""
    if budget < 1 or dim < 1 or not 0.0 <= tolerance < np.inf:
        raise ValueError("need budget, dim >= 1 and a finite tolerance >= 0")
    params = dict(case.sampler(rng))
    unknown = sorted(set(overrides) - set(params))
    if unknown:
        raise UnknownParameterError(
            f"{case.id} has no parameter {', '.join(unknown)}; "
            f"it takes {', '.join(sorted(params)) or 'none'}")
    params.update(overrides)

    n_random = max(1, budget // 3)

    def restarts():
        for k in map(len, _blocks(n_random)):
            ea, ua = random_spectra(dim, rng, FUZZ_CONDITION_RANGE, k)
            eb, ub = random_spectra(dim, rng, FUZZ_CONDITION_RANGE, k)
            x = random_complex(dim, rng, k)
            yield _pack(ea, eb, adjoint(ua) @ x @ ub), ua, ub

    raw, _, z, ua, ub = _lowest(case, params, dim, restarts())
    evals = n_random

    m = len(z)
    x_scale = max(1.0, float(np.max(np.abs(_unpack(z, dim)[2]))))
    scale = np.where(np.arange(m) < 2 * dim, 1.0, x_scale)

    def moves(z, step, count):
        # move r of a sweep is coordinate r // 2, + for even r, - for odd
        for block in _blocks(count):
            r = np.asarray(block)
            j = r // 2
            cand = np.tile(z, (len(r), 1))
            cand[r - block.start, j] += np.where(r % 2, -step, step) * scale[j]
            # eigenvalues kept inside e^+-80 so powers never overflow
            cand[:, :2 * dim] = np.clip(cand[:, :2 * dim], -80.0, 80.0)
            yield (cand,)

    step = 0.5
    while evals < budget and step > 1e-6:
        count = min(2 * m, budget - evals)
        evals += count
        cand_raw, _, cand = _lowest(case, params, dim, moves(z, step, count))
        # against the rank, so any finite candidate beats a NaN
        if cand_raw < _rank(raw) - 1e-15:
            raw, z = cand_raw, cand
        else:
            step *= 0.5

    la, lb, xt = _unpack(z, dim)
    inst = InstanceTriple(HpdMatrix.from_spectrum(np.exp(la), ua),
                          HpdMatrix.from_spectrum(np.exp(lb), ub),
                          ua @ xt @ adjoint(ub))
    raw, normalized = _instance_margin(
        case, Frame.of(inst.a, inst.x, inst.b), params)
    return FuzzFinding(case.id, params, float(raw), float(normalized),
                       bool(normalized < -tolerance), inst, evals)
