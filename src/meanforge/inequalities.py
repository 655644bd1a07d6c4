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

from . import linalg
from .dmap import (RATIONAL_FAMILIES, KernelSpec, _weighted, heinz_average,
                   kernel_eval, kernel_in_hypothesis, leading_stack, sinch)
from .errors import (DimMismatchError, NumericalFailureError,
                     RangeViolationError, UnknownCaseError,
                     UnknownParameterError)
from .linalg import (_QUIET, DEFAULT_CONDITION_RANGE, Frame, HpdMatrix,
                     _blocks, _unitary_of, adjoint, complex_gaussian,
                     log_range, random_complex, random_hpd, spawned_streams,
                     svd_values, to_interval, uniform)
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

Term = tuple[float | np.ndarray, np.ndarray | slice]


@dataclass(frozen=True)
class Step:
    """Comparisons sum c |||G[i] o Xt||| over lhs <= the same over rhs,
    of terms (c, i): a number or per-sample (..., 1, 1) array c and an
    index array or a slice i into a grid stack G, all i of a step
    selecting one count of grids; np.arange(len(G))[i] lists them."""
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
    """A case: its hypotheses as ``ranges``, name -> (lo, hi), which
    only finite values meet (``in_range``), and those that couple
    parameters as a ``hypothesis`` predicate; a builder of its grids and
    steps.  Without a sampler, it draws each parameter uniformly on its
    range, in the order ``ranges`` lists them, and a range open above
    through ``_sample_alpha``."""
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
            if value is None or not (lo <= value <= hi and np.isfinite(value)):
                return False
        return self.hypothesis is None or bool(self.hypothesis(params))


def step_margins(grids, steps: list[Step], xt=1.0) -> tuple:
    """Ky Fan margins and normalization scales of the steps' comparisons.

    ``grids`` (T, ..., n, n) are kernel grids that multiply ``xt``
    entrywise or, with ``xt`` left at 1, matrices, all in one batched
    SVD; a step weighs one gather of their cumulative sums per term, a
    view where its index is a slice.
    Returns, comparisons in listed order, the margins (comparisons, ...,
    n), right minus left for each Ky Fan order, and the scales
    (comparisons, ...), 1 + |the trace norm of the right side|.
    """
    if np.ndim(xt) and np.shape(grids)[-2:] != np.shape(xt)[-2:]:
        raise DimMismatchError("kernel grids and Xt differ in shape")
    # a NaN or inf grid gets NaN singular values, so that its margins
    # count as numerical failures; cumulative sums (T, ..., 1, n), which
    # coefficients, numbers or per-sample (..., 1, 1) arrays, broadcast on
    fans = svd_values(grids * xt).cumsum(-1)[..., None, :]
    margins, scales = [], []
    for step in steps:
        total = _weighted([(c, fans[i]) for c, i in step.rhs])
        scales.append(1.0 + np.abs(total[..., 0, -1]))
        for c, i in step.lhs:
            total = total - c * fans[i]
        margins.append(total[..., 0, :])
    if len(steps) == 1:
        return margins[0], scales[0]
    return np.concatenate(margins), np.concatenate(scales)


def _margins(case: InequalityCase, frame: Frame, params) -> tuple:
    """The verdict stage of evaluate, the suite and fuzz's witness, under
    _QUIET: (margins, normalized) of step_margins on the case's grids of
    the frame's d and its Xt scaled to the case's degree (Frame.scaled);
    normalized (comparisons, ...) is each comparison's worst margin over
    its scale."""
    with np.errstate(**_QUIET):
        margins, scales = step_margins(*case.builder(frame.d, params),
                                       frame.scaled(params.get("p", 1.0)))
        return margins, margins.min(axis=-1) / scales


def _rank(raw):
    """A NaN or infinite margin ranks as +inf, so a finite one beats it."""
    return np.where(np.isfinite(raw), raw, np.inf)


def evaluate(case: InequalityCase, inst: InstanceTriple, params: dict,
             override: bool = False) -> list[np.ndarray]:
    """Per-comparison, per-Ky-Fan-order margins of _margins for one
    instance, of params that pass _refuse_params whatever ``override``
    says, and, unless it is set, ``in_range``."""
    _refuse_params(case, case.sampler(np.random.default_rng(0)), params)
    if not override and not case.in_range(params):
        raise RangeViolationError(
            f"{case.id}: parameters {params} outside validity ranges")
    return list(_margins(case, Frame.of(inst.a, inst.x, inst.b), params)[0])


def _refuse_params(case: InequalityCase, taken, given: dict):
    """UnknownParameterError naming the names of ``taken`` (the case's
    sampler's) that ``given`` lacks, else those it has that ``taken``
    lacks; then ValueError naming each value that is not a finite number
    (a NaN fails every range, an inf passes one open above)."""
    missing = sorted(set(taken) - set(given))
    if missing:
        raise UnknownParameterError(
            f"{case.id} needs parameter {', '.join(missing)}")
    unknown = sorted(set(given) - set(taken))
    if unknown:
        raise UnknownParameterError(
            f"{case.id} has no parameter {', '.join(unknown)}; "
            f"it takes {', '.join(sorted(taken)) or 'none'}")
    bad = [name for name, value in given.items() if not np.isfinite(value)]
    if bad:
        raise ValueError(f"parameter {', '.join(bad)} is not finite")


# ---------------------------------------------------------------------------
# Builders: (d, params) -> (stack of kernel grids of d, steps into it)

# each grid of a stack but the last <= the next, as slices: a chain's
# fans are views of the stack's, gathered by no copy
_CHAIN_STEP = Step([(1.0, slice(None, -1))], [(1.0, slice(1, None))])


def _chain(*kernels) -> tuple:
    """k0 <= k1 <= ... as one single-term Step over their stack."""
    return np.array(kernels), [_CHAIN_STEP]


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
    return (np.array([lhs, rhs]),
            [Step([(1.0, [0])], [(np.divide(2.0, 2.0 + t), [1])])])


def _build_ref_ali(d, p):
    nu = p["nu"]
    r0 = np.minimum(nu, 1.0 - nu)
    grids = np.array([heinz_kernel(d, nu), _ones(d), _heron(d, p)])
    return grids, [Step([(1.0, [0])], [(4.0 * r0 - 1.0, [1]),
                                       (2.0 * (1.0 - 2.0 * r0), [2])])]


ALPHA_MONO_GRID = tuple(np.round(np.arange(0.5, 10.01, 0.5), 10))
ALPHA_SMALL_GRID = (0.0, 0.1, 0.2, 0.3, 0.4)


def _build_alpha_mono(d, p):
    # alpha on a leading axis: one cosh(d) for all the Heron grids; the
    # monotone run, then each small alpha against alpha 1/2, grid 0
    alphas = leading_stack(ALPHA_MONO_GRID + ALPHA_SMALL_GRID, d)
    herons = heron_kernel(d, alphas)
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
        return (np.array([avg, heron_kernel(d, p["alpha"])]),
                [Step([(1.0, [0])], [(factor, [1])])])
    return build


def _p_family(kernel, d, p, x) -> tuple:
    """K(r) and K(p) + t K(x) of the degree-p kernel K = kernel(., p),
    from one kernel call on the three exponents on a leading axis."""
    pw = p["p"]
    k = kernel(d, leading_stack(np.array([p["r"], pw, x]), d), pw)
    return k[0], k[1] + p["t"] * k[2]


def _build_eq210(d, p):
    # A^p X + X B^p + t (A^nu X B^(p-nu) + A^(p-nu) X B^nu)
    lhs, rhs = _p_family(p_sum_kernel, d, p, p["nu"])
    return np.array([lhs, rhs]), [Step([(1.0 + p["t"], [0])], [(1.0, [1])])]


def _build_eq211(d, p):
    # perturbation written as t (A^(p-nu) X B^nu - A^nu X B^(p-nu)) so the
    # underlying kernel is sinh(pD) + t sinh((p-2 nu)D) for nu <= p/2
    lhs, rhs = _p_family(p_diff_kernel, d, p, p["p"] - p["nu"])
    weight = abs(p["p"] - 2.0 * p["r"])
    return np.array([lhs, rhs]), [Step([(1.0 + p["t"], [0])], [(weight, [1])])]


def _build_eq212(d, p):
    big, small = _p_family(p_sum_kernel, d, p, p["nu"])
    return np.array([small, big]), [Step([(1.0, [0])], [(1.0 + p["t"], [1])])]


def _build_eq213(d, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    big, small = _p_family(p_diff_kernel, d, p, nu)
    # +-inf or NaN at p = 2r: non-finite margins, as for any pole
    factor = np.divide((1.0 + t) * pw - 2.0 * t * nu, pw - 2.0 * r)
    return np.array([small, big]), [Step([(1.0, [0])], [(factor, [1])])]


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
        d, leading_stack(grid[:F_NU_GRID_POINTS // 2 + 1], d), pw)
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


def _forward(p_range, nu_cap) -> tuple:
    """eq2.10's or eq2.11's sampler, p on p_range, then nu in [0, nu_cap(p)]
    and r in [nu/2, p/2], and its coupling as the hypothesis."""
    def sample(rng):
        pw = uniform(rng, *p_range)
        nu = uniform(rng, 0.0, nu_cap(pw))
        r = uniform(rng, nu / 2.0, pw / 2.0)
        return {"p": pw, "nu": nu, "r": r, "t": uniform(rng, -1.0, 1.0)}
    return sample, lambda p: (0.0 <= p["nu"] <= nu_cap(p["p"])
                              and p["nu"] <= 2.0 * p["r"] <= p["p"])


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


def _interpolant_case(cid, half, nu0, label) -> InequalityCase:
    # H_nu <= (1-b) H_nu0 + b H_{1/4} <= Heron on the window 1/2 +- half,
    # whose ends are exact in binary
    return InequalityCase(
        cid, {"nu": (0.5 - half, 0.5 + half), "alpha": (0.5, np.inf),
              "beta": (0.5, 1.0)},
        lambda d, p: _chain(_heinz(d, p), _mix(d, p["beta"], nu0, 0.25),
                            _heron(d, p)),
        f"interpolant (1-b) {label} + b H_{{1/4}}")


def _build_registry() -> dict[str, InequalityCase]:
    # the Heinz window nu in [1/4, 3/4] and the Heron alpha >= 1/2
    window = {"nu": (0.25, 0.75), "alpha": (0.5, np.inf)}
    alpha = {"alpha": (0.5, np.inf)}
    # the coupled hypotheses of eq2.10-eq2.13 are read off their samplers
    # and eq2.12's description: the paper's statements are not at hand
    reverse = (_sample_eq212, lambda p: (p["r"] <= 0.0 <= p["p"]
                                         and p["r"] <= p["nu"] <= p["p"] / 2))
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
        _interpolant_case("eq2.2", 1 / 8, 0.5, "geometric"),
        _interpolant_case("eq2.3", 3 / 16, 3 / 8, "H_{3/8}"),
        _interpolant_case("eq2.7", 7 / 32, 5 / 16, "H_{5/16}"),
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
            *_forward((0.05, 2.0), lambda pw: pw)),
        InequalityCase(
            "eq2.11", {"t": (-1.0, 1.0)}, _build_eq211,
            "p-Heinz difference vs |p-2r| scaled endpoint difference",
            *_forward((1.0, 3.0), lambda pw: min(pw / 2.0, pw - 1.0))),
        InequalityCase(
            "eq2.12", {"t": (0.0, np.inf)}, _build_eq212,
            "reversed sum inequality for r <= 0 <= p", *reverse),
        InequalityCase(
            "eq2.13", {"t": (0.0, np.inf)}, _build_eq213,
            "reversed difference inequality with the (p, nu, r) factor",
            *reverse),
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
    those of the suite's draw passes.  ``HpdMatrix`` sorts each
    spectrum, so from dim 3 on (LAPACK's SVD) ``evaluate``, ``_margins``
    on its ``Frame.of``, agrees with the suite's row only to rounding;
    the exact replay is a one-sample ``_draw_pass`` by ``_run_case_dim``.
    """
    if not 0 <= case_index < len(CASE_IDS):
        raise ValueError(f"no case at index {case_index}")
    rng, = spawned_streams(seed, [(case_index, dim, sample)])
    return random_instance(dim, rng, condition_range), rng


def random_instance(dim: int, rng: np.random.Generator,
                    condition_range=DEFAULT_CONDITION_RANGE
                    ) -> InstanceTriple:
    """A and B by ``random_hpd``, then X by ``random_complex``, from rng."""
    return InstanceTriple(random_hpd(dim, rng, condition_range),
                          random_hpd(dim, rng, condition_range),
                          random_complex(dim, rng))


def _draw_pass(seed: int, dim: int, cells, condition_range) -> list:
    """Blocks (samples, frame, params) of some (case id, samples) pieces
    of cells of one dim, drawn in one pass.  Every sample's stream is
    derived at once and draws in turn, the instance into rows of the
    pass arrays and then its case's sampler; the pass ends with one map
    of u to the log range, one batched QR and one rotation U_A* X U_B,
    and each piece's frame is built from its own rows."""
    rows = [(cid, sample) for cid, samples in cells for sample in samples]
    streams = spawned_streams(seed, [(CASE_IDS.index(cid), dim, sample)
                                     for cid, sample in rows])
    u = np.empty((2, len(rows), dim))
    # Gaussians of A, B and X: B's and X's are adjacent in a stream
    g = np.empty((len(rows), 3, 2, dim, dim))
    params = []
    for (cid, _), rng, ua, ub, gs in zip(rows, streams, u[0], u[1], g):
        # the draws of random_hpd twice, then of random_complex
        rng.random(out=ua)
        rng.standard_normal(out=gs[0])
        rng.random(out=ub)
        rng.standard_normal(out=gs[1:])
        params.append(REGISTRY[cid].sampler(rng))
    ea, eb = np.exp(to_interval(u, *log_range(condition_range)))
    q = _unitary_of(g[:, :2])
    xt = adjoint(q[:, 0]) @ complex_gaussian(g[:, 2]) @ q[:, 1]
    blocks, lo = [], 0
    for _, samples in cells:
        part, lo = slice(lo, lo + len(samples)), lo + len(samples)
        blocks.append((samples, Frame(ea[part], eb[part], xt[part]),
                       params[part]))
    return blocks


def _run_case_dim(task) -> CaseResult:
    """One drawn piece of a (case, dim) cell from task (case id,
    tolerance, dim, samples, frame, params), evaluated as one frame stack
    with per-sample parameters as (samples, 1, 1) arrays.  A cell of at
    most CELL_BLOCK samples is one piece, so this runs once per cell;
    a larger cell runs it once per piece.  The normalized margins of
    _margins are ranked by _rank: a NaN or inf one ranks as +inf, which
    counts as a numerical failure, neither a pass nor a violation, and
    stays out of the minima."""
    # benchmarks/ times this call per cell and reads task[0] and task[2]
    case_id, tolerance, dim, samples, frame, params = task
    params = {k: np.array([p[k] for p in params])[:, None, None]
              for k in params[0]}
    clean = _rank(_margins(REGISTRY[case_id], frame, params)[1])
    worst = clean.min(axis=0)
    i = int(np.argmin(worst))
    return CaseResult(case_id, float(worst[i]),
                      int(np.count_nonzero(clean < -tolerance)),
                      [dim, samples[i]] if worst[i] < np.inf else [0, 0],
                      clean.min(axis=1).tolist(),
                      int(np.count_nonzero(clean == np.inf)))


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
    # a TypeError if a count or the seed is not an integer
    samples, dims = operator.index(samples), list(map(operator.index, dims))
    seed = operator.index(seed)
    # one merged result per case id, one scored cell per (case, dim)
    for name, ids in (("case ids", case_ids), ("dims", dims)):
        if not ids or len(set(ids)) < len(ids):
            raise ValueError(f"{name} must be nonempty, none repeated")
    if min(samples, *dims) < 1 or seed < 0 or not 0.0 <= tolerance < np.inf:
        raise ValueError("need samples, dims >= 1, a seed >= 0 and a finite "
                         "tolerance >= 0")
    log_range(condition_range)  # raises before any pass is drawn

    start = time.perf_counter()
    per_pass = max(1, linalg.CELL_BLOCK // samples)
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
    return VerificationReport(seed, dims, samples, tolerance,
                              list(cases.values()), elapsed)


# ---------------------------------------------------------------------------
# Fuzzer

@dataclass
class FuzzFinding:
    """What ``fuzz`` found: the parameters it ran with, the worst raw and
    normalized margins that _margins gives on the frame of the witness
    ``instance``, both finite, whether the normalized one is below
    -tolerance, and the evaluations it spent."""
    case_id: str
    params: dict
    margin: float
    normalized_margin: float
    violation: bool
    instance: InstanceTriple
    evaluations: int


def _instance_margin(case, frame: Frame, params) -> np.ndarray:
    """The worst raw margin over all steps and Ky Fan orders of each
    point of a fuzz frame stack, (points,); a NaN margin makes it NaN.
    The frame's xt is Y, the scaled Xt at every degree, so it goes to
    step_margins as it is, under _QUIET, and log_geo is not read.  The
    fuzzer's one engine call per scored block of points."""
    # benchmarks/ cuts each fuzz probe's time at this call
    with np.errstate(**_QUIET):
        margins, _ = step_margins(*case.builder(frame.d, params), frame.xt)
    return margins.min(axis=(0, -1))


def _unpack(z, n: int) -> tuple:
    """(log a, log b, Y) of points z = (log a, log b, Re Y, Im Y), rows
    of 2n + 2n^2 reals."""
    k = n * n
    y = z[..., 2 * n:2 * n + k] + 1j * z[..., 2 * n + k:]
    return z[..., :n], z[..., n:2 * n], y.reshape(*z.shape[:-1], n, n)


def _witness(z, n: int, params) -> InstanceTriple:
    """A = diag(a), B = diag(b) and X = (ab)^(-p/2) o Y of a point z, its
    logs shifted by their mean so that log_geo has mean 0."""
    ea, eb = np.exp(z[:2 * n].reshape(2, n) - z[:2 * n].mean())
    x = Frame(ea, eb, _unpack(z, n)[2]).scaled(-params.get("p", 1.0))
    return InstanceTriple(HpdMatrix.from_spectrum(ea, np.eye(n)),
                          HpdMatrix.from_spectrum(eb, np.eye(n)), x)


def _lowest(case, params, n: int, blocks) -> tuple:
    """(rank, point) of the first lowest-ranked (_rank) point of blocks,
    arrays (points, 2n + 2n^2) of at most CELL_BLOCK points made as they
    are read, each scored as the frame of its a and b with xt = Y by one
    _instance_margin call; the point kept is a copy, so no block stays."""
    best = np.inf, None
    for points in blocks:
        la, lb, y = _unpack(points, n)
        ranks = _rank(_instance_margin(
            case, Frame(np.exp(la), np.exp(lb), y), params))
        i = int(ranks.argmin())
        if best[1] is None or ranks[i] < best[0]:
            best = ranks[i], points[i].copy()
    return best


def fuzz(case: InequalityCase, overrides: dict, budget: int,
         rng: np.random.Generator, dim: int = 1,
         tolerance: float = DEFAULT_TOLERANCE) -> FuzzFinding:
    """Hunt for negative margins: random restarts followed by steepest
    coordinate descent in the joint eigenframe.  Overrides must name
    parameters that the case's sampler produces, with finite values.

    A case's terms all have one degree p, so a margin depends only on the
    degree-free point z = (log a, log b, Re Y, Im Y), Y = (ab)^(p/2) o Xt.
    The search ranks points by their worst raw margin, one _lowest call
    for all restarts and one per sweep, over pieces of at most CELL_BLOCK
    points made as they are ranked.  The restarts, drawn from ``rng``,
    have logs uniform on those of FUZZ_CONDITION_RANGE and Y standard
    complex Gaussian.  The first lowest-ranked starts the descent: a
    sweep moves each coordinate of z in turn by +step, then -step, times
    max(1, max |Y_ij|) for Y, each move a copy of z with that one entry
    changed, and takes the first lowest-ranked move if it ranks below the
    best by more than 1e-15, else halves the step; the last sweep is cut
    to the budget.
    Restarts and moves keep their logs within +-L, L = min(80, 300/|p|),
    so that p |log_geo| <= 600 on the witness and its X stays finite.
    p enters only at _witness(z), whose margins from _margins on the
    frame that ``evaluate`` builds (not counted as an evaluation) are
    the finding's, so that a replay gives its bits.  If they are not
    finite: NumericalFailureError."""
    budget, dim = operator.index(budget), operator.index(dim)
    if budget < 1 or dim < 1 or not 0.0 <= tolerance < np.inf:
        raise ValueError("need budget, dim >= 1 and a finite tolerance >= 0")
    drawn = case.sampler(rng)
    params = {**drawn, **overrides}
    _refuse_params(case, drawn, params)
    bound = 300.0 / max(abs(params.get("p", 1.0)), 3.75)
    lo, hi = np.clip(log_range(FUZZ_CONDITION_RANGE), -bound, bound)

    def restarts(count):
        logs = uniform(rng, lo, hi, (count, 2 * dim))
        y = random_complex(dim, rng, count).reshape(count, -1)
        return np.concatenate([logs, y.real, y.imag], axis=1)

    evals = max(1, budget // 3)
    best, z = _lowest(case, params, dim,
                      (restarts(len(b)) for b in _blocks(evals)))

    # move 2j is +scale_j on coordinate j, move 2j + 1 is -scale_j
    x_scale = max(1.0, float(np.max(np.abs(_unpack(z, dim)[2]))))
    scale = np.where(np.arange(len(z)) < 2 * dim, 1.0, x_scale)
    coord = np.repeat(np.arange(len(z)), 2)
    moves = np.outer(scale, [1.0, -1.0]).ravel()

    def sweep(z, step, count):
        for block in _blocks(count):
            piece = slice(block.start, block.stop)
            cands = np.repeat(z[None], len(block), axis=0)
            cands[np.arange(len(block)), coord[piece]] += step * moves[piece]
            logs = cands[:, :2 * dim]
            np.maximum(logs, -bound, out=logs)
            np.minimum(logs, bound, out=logs)
            yield cands

    step = 0.5
    while evals < budget and step > 1e-6:
        count = min(len(coord), budget - evals)
        evals += count
        rank, cand = _lowest(case, params, dim, sweep(z, step, count))
        if rank < best - 1e-15:
            best, z = rank, cand
        else:
            step *= 0.5

    inst = _witness(z, dim, params)
    raw, normalized = (float(np.min(m)) for m in _margins(
        case, Frame.of(inst.a, inst.x, inst.b), params))
    if not np.isfinite([raw, normalized]).all():
        raise NumericalFailureError("the worst margin is not finite")
    return FuzzFinding(case.id, params, raw, normalized,
                       normalized < -tolerance, inst, evals)
