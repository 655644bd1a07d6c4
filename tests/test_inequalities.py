import concurrent.futures
import dataclasses
import hashlib
import json
import numbers
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanforge import inequalities as iq
from meanforge import io, linalg
from meanforge.errors import (NumericalFailureError, RangeViolationError,
                              UnknownCaseError, UnknownParameterError)
from meanforge.linalg import (Frame, HpdMatrix, log_range, random_complex,
                              random_hpd, uniform)
from meanforge.means import (heinz_kernel, heron_kernel, p_diff_kernel,
                             p_sum_kernel)

from draw_oracle import sample_draws, sample_frame
from interval_oracle import eq12_f, prove_eq12
from scalar_oracle import oracle_margins
from test_linalg import fail_lapack

REFERENCE = (Path(__file__).resolve().parents[1] / "benchmarks"
             / "reference_sweep_20240801.json")

EXPECTED_IDS = {
    "eq1.1", "eq1.2", "eq1.3", "refAli", "eq1.4-chain", "eq1.4-alpha-mono",
    "eq2.2", "eq2.3", "eq2.7", "eq2.8", "eq2.9",
    "avg-12", "avg-14", "avg-716", "avg-516",
    "eq2.10", "eq2.11", "eq2.12", "eq2.13", "f-nu-shape",
    "prop2.1-1", "prop2.1-2", "prop2.1-3", "prop2.1-4",
}


def untimed(report: iq.VerificationReport) -> dict:
    """The report's dict without its wall time, the one field that two
    runs of the same config may differ in."""
    d = report.to_dict()
    del d["elapsedSeconds"]
    return d


def scalar_instance(a: float, b: float, x: complex) -> iq.InstanceTriple:
    return iq.InstanceTriple(
        HpdMatrix.from_matrix(np.array([[a]], dtype=complex)),
        HpdMatrix.from_matrix(np.array([[b]], dtype=complex)),
        np.array([[x]], dtype=complex))


def test_registry_covers_all_cases():
    assert set(iq.CASE_IDS) == EXPECTED_IDS


def test_unknown_case():
    with pytest.raises(UnknownCaseError):
        iq.get_case("nosuchcase")


def test_eq13_scalar_margin():
    inst = scalar_instance(4.0, 1.0, 1.0)
    case = iq.get_case("eq1.3")
    margins = iq.evaluate(case, inst, {"nu": 0.25, "alpha": 0.5})
    assert margins[1][0] == pytest.approx(2.25 - 2.1213203436, abs=1e-9)


def test_eq12_identity_operands_collapse():
    inst = scalar_instance(1.0, 1.0, 1.0)
    case = iq.get_case("eq1.2")
    margins = iq.evaluate(case, inst, {"nu": 0.3, "alpha": 0.7})
    assert margins[0][0] == pytest.approx(0.0, abs=1e-12)


def test_eq210_scalar_margin():
    inst = scalar_instance(4.0, 1.0, 1.0)
    case = iq.get_case("eq2.10")
    margins = iq.evaluate(case, inst,
                          {"p": 1.0, "nu": 0.5, "r": 0.25, "t": 1.0})
    assert margins[0][0] == pytest.approx(9.0 - 8.4852813742, abs=1e-9)


@pytest.mark.parametrize("cid, params, missing", [
    ("eq2.10", {"t": 0.5}, "nu, p, r"),
    ("eq2.11", {"t": 0.5}, "nu, p, r"),
    ("eq1.2", {"nu": 0.3}, "alpha"),
], ids=["eq2.10-hypothesis", "eq2.11-builder", "eq1.2-range"])
def test_evaluate_names_missing_parameters(cid, params, missing):
    # eq2.10's hypothesis and eq2.11's builder read the missing names, and
    # a bare KeyError would name only the first one they read
    inst = iq.make_instance(1, 0, 2, 0)[0]
    for override in (False, True):
        with pytest.raises(UnknownParameterError,
                           match=f"parameter {missing}$"):
            iq.evaluate(iq.get_case(cid), inst, params, override=override)


@pytest.mark.parametrize("cid, params, unknown", [
    ("eq1.2", {"nu": 0.3, "alpha": 0.7, "nuu": 0.1}, "nuu"),
    ("eq1.4-alpha-mono", {"alpha": 0.1}, "alpha"),
    ("eq1.2", {"nu": 0.1, "alpha": 0.5, "nuu": 0.1, "beta": 1.0},
     "beta, nuu"),
], ids=["eq1.2-typo", "eq1.4-alpha-mono-takes-none", "eq1.2-out-of-range"])
def test_evaluate_refuses_unknown_parameters(cid, params, unknown):
    # as fuzz does, and before the range check: the last set is also out
    # of range
    inst = iq.make_instance(1, 0, 2, 0)[0]
    for override in (False, True):
        with pytest.raises(UnknownParameterError,
                           match=f"no parameter {unknown};"):
            iq.evaluate(iq.get_case(cid), inst, params, override=override)


def test_out_of_range_raises_without_override():
    inst = scalar_instance(4.0, 1.0, 1.0)
    case = iq.get_case("eq1.2")
    with pytest.raises(RangeViolationError):
        iq.evaluate(case, inst, {"nu": 0.1, "alpha": 0.5})


@pytest.mark.parametrize("cid, params", [
    ("eq2.10", {"p": 1.0, "nu": 0.9, "r": 0.0, "t": 0.5}),
    ("eq2.10", {"p": 1.0, "nu": 0.4, "r": 0.6, "t": 0.5}),
    ("eq2.10", {"p": 1.0, "nu": -0.1, "r": 0.0, "t": 0.5}),
    ("eq2.10", {"p": 1.0, "nu": 1.1, "r": 0.5, "t": 0.5}),
    ("eq2.11", {"p": 2.0, "nu": 1.9, "r": 0.0, "t": 0.5}),
    ("eq2.11", {"p": 1.5, "nu": 0.6, "r": 0.5, "t": 0.5}),
    ("eq2.12", {"p": 1.0, "nu": 0.5, "r": 0.3, "t": 1.0}),
    ("eq2.12", {"p": 1.0, "nu": -0.5, "r": -0.4, "t": 1.0}),
    ("eq2.13", {"p": 1.0, "nu": 0.5, "r": 0.3, "t": 1.0}),
    ("eq2.13", {"p": -0.2, "nu": -0.2, "r": -0.5, "t": 1.0}),
    ("prop2.1-1", {"s1": 0.1, "s2": 0.9, "r": 5.0, "t": 0.5}),
    ("prop2.1-2", {"s1": 0.9, "s2": 0.1, "r": 0.2, "rp": 0.2,
                   "alpha": 0.5, "beta": 0.2}),
], ids=["eq2.10-r<nu/2", "eq2.10-r>p/2", "eq2.10-nu<0", "eq2.10-nu>p",
        "eq2.11-nu>p/2", "eq2.11-nu>p-1", "eq2.12-r>0", "eq2.12-nu<r",
        "eq2.13-r>0", "eq2.13-p<0", "prop2.1-1-s2>s1",
        "prop2.1-2-beta<1/2"])
def test_coupled_hypotheses_raise_without_override(cid, params):
    # the ranges' t alone would let these through: r < nu/2, r > p/2,
    # nu outside [0, p] (eq2.10) or [0, min(p/2, p-1)] (eq2.11), r > 0,
    # nu < r and p < 0 (eq2.12, eq2.13), and kernel parameters off
    # kernel_in_hypothesis
    inst = iq.make_instance(1, 0, 2, 0)[0]
    case = iq.get_case(cid)
    assert not case.in_range(params)
    with pytest.raises(RangeViolationError):
        iq.evaluate(case, inst, params)
    assert len(iq.evaluate(case, inst, params, override=True)) == 1


@pytest.mark.parametrize("cid, params, override", [
    ("eq1.2", {"nu": 0.3, "alpha": float("inf")}, False),
    ("eq1.2", {"nu": 0.3, "alpha": float("inf")}, True),
    ("eq1.2", {"nu": float("nan"), "alpha": 0.5}, True),
    ("eq1.2", {"nu": 0.3, "alpha": float("-inf")}, True),
    ("eq2.12", {"p": 1.0, "nu": -0.5, "r": -0.5, "t": float("inf")}, False),
    ("eq2.13", {"p": 1.0, "nu": -0.5, "r": -0.5, "t": float("inf")}, True),
], ids=["alpha-inf", "alpha-inf-override", "nu-nan-override",
        "alpha-minus-inf-override", "eq2.12-t-inf", "eq2.13-t-inf-override"])
def test_evaluate_refuses_non_finite_parameters(cid, params, override):
    # alpha's range and eq2.12's and eq2.13's t are open above, so an inf
    # passed lo <= value <= hi and made NaN margins; the override skips
    # the ranges, not the rule that every value is a finite number
    case = iq.get_case(cid)
    assert not case.in_range(params)
    with pytest.raises(ValueError, match="is not finite"):
        iq.evaluate(case, iq.make_instance(1, 1, 2, 0)[0], params,
                    override=override)


@pytest.mark.parametrize("cid, params", [
    ("eq2.10", {"p": 1.0, "nu": 1.0, "r": 0.5, "t": -1.0}),
    ("eq2.10", {"p": 1.0, "nu": 0.0, "r": 0.0, "t": 1.0}),
    ("eq2.11", {"p": 2.0, "nu": 1.0, "r": 0.5, "t": -1.0}),
    ("eq2.12", {"p": 1.0, "nu": 0.5, "r": 0.0, "t": 8.0}),
    ("eq2.13", {"p": 0.5, "nu": -1.5, "r": -1.5, "t": 0.0}),
    ("prop2.1-1", {"s1": 0.9, "s2": 0.1, "r": -0.5, "t": 1.0}),
], ids=["eq2.10-nu=p", "eq2.10-nu=0", "eq2.11-nu=p/2=p-1=2r",
        "eq2.12-r=0-nu=p/2", "eq2.13-nu=r", "prop2.1-1-r=-mid"])
def test_coupled_hypotheses_keep_their_boundary(cid, params):
    inst = iq.make_instance(1, 0, 2, 0)[0]
    assert len(iq.evaluate(iq.get_case(cid), inst, params)) == 1


@pytest.mark.parametrize("cid", sorted(EXPECTED_IDS))
def test_sampler_stays_in_ranges(cid):
    case = iq.get_case(cid)
    for seed in range(200):
        params = case.sampler(np.random.default_rng(seed))
        assert case.in_range(params), (seed, params)
    # and 10^4 draws of one stream: every draw meets the case's ranges
    # and its coupled hypothesis, so the sweep never tests a point that
    # the case does not claim
    rng = np.random.default_rng(iq.CASE_IDS.index(cid))
    for _ in range(10 ** 4):
        params = case.sampler(rng)
        assert case.in_range(params), params


@pytest.mark.parametrize("ranges", [
    {"nu": (0.3, 0.4)},
    {"nu": (0.3, 0.4), "alpha": (0.5, np.inf), "beta": (0.5, 1.0)},
], ids=["nu", "nu-alpha-beta"])
def test_default_sampler_draws_each_range_in_order(ranges):
    # uniform on a closed range; an atom at 1/2 or uniform on
    # [1/2, ALPHA_CAP] for alpha's [1/2, inf)
    case = iq.InequalityCase("c", ranges, builder=None)
    for seed in range(50):
        twin = np.random.default_rng(seed)
        want = {}
        for name, (lo, hi) in ranges.items():
            if hi < np.inf:
                want[name] = twin.uniform(lo, hi)
            elif twin.uniform(0.0, 1.0) < 0.1:
                want[name] = lo
            else:
                want[name] = twin.uniform(lo, iq.ALPHA_CAP)
        # exact floats, in the listed order
        got = case.sampler(np.random.default_rng(seed))
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("cid, params", [
    ("eq1.1", {"nu": 0.5, "t": -2.0}),
    # p = 2r meets eq2.13's hypothesis r <= 0 <= p only at p = r = 0
    ("eq2.13", {"p": 0.0, "nu": 0.0, "r": 0.0, "t": 1.0}),
], ids=["eq1.1-t=-2", "eq2.13-p=2r"])
def test_weight_poles_give_non_finite_margins(cid, params):
    # in-range points where a step's weight has a pole: +-inf or NaN
    # there, counted as numerical failures, not a ZeroDivisionError
    margins = iq.evaluate(iq.get_case(cid), scalar_instance(4.0, 1.0, 1.0),
                          params)
    assert not np.isfinite(margins).any()


def test_eq12_override_witness():
    inst = scalar_instance(100.0, 1.0, 1.0)
    case = iq.get_case("eq1.2")
    margins = iq.evaluate(case, inst, {"nu": 0.1, "alpha": 0.5},
                          override=True)
    assert margins[0][0] == pytest.approx(-2.0903, abs=1e-3)


def test_scalar_oracle_agreement():
    for ci, cid in enumerate(iq.CASE_IDS):
        case = iq.get_case(cid)
        for sample in range(20):
            inst, rng = iq.make_instance(123, ci, 1, sample)
            params = case.sampler(rng)
            margins = [float(m[0])
                       for m in iq.evaluate(case, inst, params, override=True)]
            a = float(inst.a.eigenvalues[0])
            b = float(inst.b.eigenvalues[0])
            x = complex(inst.x[0, 0])
            expected = oracle_margins(cid, params, a, b, x)
            assert len(margins) == len(expected)
            for got, want in zip(margins, expected):
                assert got == pytest.approx(want, abs=1e-12 * (1 + abs(want)))


def test_eq12_interval_proof_at_n1():
    # the window nu in [1/4, 3/4] is u = 2 nu - 1 in [-1/2, 1/2]
    proof = prove_eq12(0.5)
    assert proof.holds and proof.label == "n = 1, |d| ≤ 40 (interval proof)"
    assert (proof.boxes, proof.leaves) == (7, 4)
    # criterion 5's violating probe nu = 0.1, u = -0.8: refused on a box
    # where f is negative
    refused = prove_eq12(0.8)
    assert not refused.holds and refused.label is None
    assert refused.box[1] - refused.box[0] <= 1e-6
    assert eq12_f(0.8, refused.box[1]) < 0
    # f is the engine's raw margin over |y| d^2, at a b = 1 and alpha = 1/2
    y = 0.7 - 1.3j
    for nu in (0.25, 0.4, 0.6, 0.75):
        for d in (0.5, 2.0, 10.0, 30.0):
            frame = Frame([np.exp(d)], [np.exp(-d)], [[y]])
            margins = iq._margins(iq.get_case("eq1.2"), frame,
                                  {"nu": nu, "alpha": 0.5})[0]
            want = float(eq12_f(2 * nu - 1, d))
            assert margins.item() / (abs(y) * d * d) == pytest.approx(
                want, rel=1e-13, abs=0.0), (nu, d)


def test_comparison_counts():
    # a step compares as many grids as each of its terms selects; it is
    # single-term when each side has one term
    d = np.linspace(-1.0, 1.0, 4).reshape(2, 2)
    frame = Frame([2.0, 0.5], [1.0, 3.0], np.eye(2))
    counts, multi = {}, {}
    for cid, case in iq.REGISTRY.items():
        params = case.sampler(np.random.default_rng(0))
        grids, steps = case.builder(d, params)
        for step in steps:
            size, = {np.arange(len(grids))[i].size
                     for _, i in step.lhs + step.rhs}
            counts[cid] = counts.get(cid, 0) + size
            if (len(step.lhs), len(step.rhs)) != (1, 1):
                multi[cid] = multi.get(cid, 0) + size
        # as many as the engine scores
        assert len(iq._margins(case, frame, params)[1]) == counts[cid]
    assert sum(counts.values()) == 135
    assert multi == {"refAli": 1, "f-nu-shape": 39}
    assert sum(counts.values()) - sum(multi.values()) == 95  # single-term


def test_suite_determinism():
    kwargs = dict(dims=[1, 3], samples=5, seed=99)
    r1 = iq.run_suite(**kwargs)
    r2 = iq.run_suite(**kwargs)
    assert untimed(r1) == untimed(r2)


def test_suite_filtered_matches_full_run():
    full = iq.run_suite([2], 5, seed=7)
    part = iq.run_suite([2], 5, seed=7, case_ids=["eq1.2", "eq2.9"])
    by_id = {c.id: c for c in full.cases}
    for c in part.cases:
        assert c.to_dict() == by_id[c.id].to_dict()


def test_suite_rejects_bad_input():
    with pytest.raises(ValueError):
        iq.run_suite([2], 0, seed=1)
    with pytest.raises(UnknownCaseError):
        iq.run_suite([2], 1, seed=1, case_ids=["bogus"])


@pytest.mark.parametrize("kwargs", [
    {"case_ids": []},  # a pass with nothing checked
    {"case_ids": ["eq1.2", "eq1.2"]},  # one case reported twice
    {"dims": [1, 1]},  # dim 1 scored twice into one case
    {"dims": []},
    {"dims": [0]},
    {"tolerance": float("nan")},  # no margin would count as a violation
    {"tolerance": float("inf")},
    {"tolerance": -1e-9},
], ids=["no-cases", "repeated-case", "repeated-dim", "no-dims", "dim-0",
        "nan-tolerance", "inf-tolerance", "negative-tolerance"])
def test_suite_rejects_degenerate_input(kwargs):
    run = {"dims": [1], "samples": 2, "seed": 1, **kwargs}
    with pytest.raises(ValueError):
        iq.run_suite(**run)


def test_suite_small_run_sound():
    report = iq.run_suite([1, 2, 4], 25, seed=2024)
    assert report.total_violations == 0
    assert all(len(c.steps) >= 1 for c in report.cases)


def test_suite_parallel_matches_serial(monkeypatch):
    serial = untimed(iq.run_suite([1, 2], 5, seed=31, workers=1))
    assert untimed(iq.run_suite([1, 2], 5, seed=31, workers=2)) == serial
    # at CELL_BLOCK 3 each 5-sample cell is two pieces, of 3 and 2
    # samples, in passes of their own, which the pool's two workers share
    monkeypatch.setattr(linalg, "CELL_BLOCK", 3)
    assert untimed(iq.run_suite([1, 2], 5, seed=31, workers=2)) == serial


@pytest.mark.parametrize("block, passes", [
    (3, [3, 3, 3, 1] * 48),  # each cell drawn in blocks of three samples
    (25, [20] * 24),  # two cells of ten samples to a pass
], ids=["cells-in-blocks", "two-cells-a-pass"])
def test_blocked_cells_match_one_block(monkeypatch, block, passes):
    # the same report, bit for bit, as with CELL_BLOCK 256, where all 24
    # cells of a dim are drawn in one pass
    sizes, draw = [], iq._draw_pass

    def draw_pass(seed, dim, cells, condition_range):
        sizes.append(sum(len(samples) for _, samples in cells))
        return draw(seed, dim, cells, condition_range)

    monkeypatch.setattr(iq, "_draw_pass", draw_pass)
    whole = untimed(iq.run_suite([1, 3], 10, seed=29))
    assert sizes == [240, 240]
    sizes.clear()
    monkeypatch.setattr(linalg, "CELL_BLOCK", block)
    blocked = untimed(iq.run_suite([1, 3], 10, seed=29))
    assert sizes == passes
    assert blocked == whole
    # some worst samples sit past the first block of three
    assert any(c["worstSeed"][1] >= 3 for c in blocked["cases"])


def test_suite_pool_never_outnumbers_its_tasks(monkeypatch):
    # a fork pool starts all its workers at once, so it is asked for no
    # more than there are passes; this one starts no process
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    serial = iq.run_suite([1, 2], 5, seed=31)
    pooled = iq.run_suite([1, 2], 5, seed=31, workers=500)
    assert asked == [2]  # one pass a dim
    assert untimed(pooled) == untimed(serial)


@pytest.mark.parametrize("dim, samples, block, condition_range", [
    (1, 5, 256, iq.DEFAULT_CONDITION_RANGE),
    (3, 10, 25, iq.DEFAULT_CONDITION_RANGE),
    (2, 7, 3, iq.FUZZ_CONDITION_RANGE),
], ids=["one-pass", "two-cells-a-pass", "cells-in-blocks"])
def test_draw_passes_match_one_stream_at_a_time(monkeypatch, dim, samples,
                                                block, condition_range):
    # every sample's frame grids and parameters, bit for bit, as its own
    # stream draws them
    passes, draw = [], iq._draw_pass

    def draw_pass(seed, dim, cells, condition_range):
        blocks = draw(seed, dim, cells, condition_range)
        passes.append((cells, blocks))
        return blocks

    monkeypatch.setattr(iq, "_draw_pass", draw_pass)
    monkeypatch.setattr(linalg, "CELL_BLOCK", block)
    iq.run_suite([dim], samples, 20240801, condition_range=condition_range)
    checked = 0
    for cells, blocks in passes:
        for (cid, samples_), (drawn, frame, params) in zip(cells, blocks):
            assert drawn == samples_
            for j, sample in enumerate(samples_):
                *grids, want = sample_frame(
                    20240801, iq.CASE_IDS.index(cid), dim, sample,
                    condition_range, iq.REGISTRY[cid].sampler)
                got = frame.d[j], frame.log_geo[j], frame.xt[j]
                assert [g.tobytes() for g in got] == [
                    g.tobytes() for g in grids], (cid, sample)
                assert params[j] == want, (cid, sample)
                checked += 1
    assert checked == len(iq.CASE_IDS) * samples


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_make_instance_gives_its_streams_draws(dim):
    # bit for bit: each spectrum sorted descending with its eigenvector
    # columns, X, and then the parameters from the stream it returns
    for ci, cid in enumerate(iq.CASE_IDS):
        sampler = iq.REGISTRY[cid].sampler
        for sample in range(3):
            inst, rng = iq.make_instance(13, ci, dim, sample)
            ea, ua, eb, ub, x, params = sample_draws(
                13, ci, dim, sample, iq.DEFAULT_CONDITION_RANGE, sampler)
            for m, e, u in ((inst.a, ea, ua), (inst.b, eb, ub)):
                order = np.argsort(-e, kind="stable")
                assert m.eigenvalues.tobytes() == e[order].tobytes(), cid
                assert m.eigenvectors.tobytes() == u[:, order].tobytes(), cid
            assert inst.x.tobytes() == x.tobytes(), cid
            assert sampler(rng) == params, cid


def _no_pass(task):
    raise AssertionError("a pass was drawn")


@pytest.mark.parametrize("draw", [
    lambda rng: random_hpd(0, rng),
    lambda rng: random_complex(2, rng, 0),
    lambda rng: iq.make_instance(1, 99, 2, 0),
    lambda rng: iq.make_instance(1, 0, 0, 0),
    lambda rng: log_range((1.0, np.inf)),
    lambda rng: iq.run_suite([2], 2, seed=1, case_ids=["eq1.2"],
                             condition_range=(1.0, np.inf)),
    lambda rng: iq.run_suite([2], 2, seed=1, case_ids=["eq1.2"],
                             condition_range=(0.0, 1.0)),
    lambda rng: iq.run_suite([2], 2, seed=-1, case_ids=["eq1.2"]),
], ids=["hpd-dim-0", "complex-count-0", "instance-no-case",
        "instance-dim-0", "log-range-inf",
        "suite-cond-inf", "suite-cond-0", "suite-seed-negative"])
def test_degenerate_draw_input_is_refused(monkeypatch, draw):
    # run_suite checks its condition range and seed before it draws any
    # pass, so in the parent process when it runs a pool
    monkeypatch.setattr(iq, "_run_pass", _no_pass)
    with pytest.raises(ValueError):
        draw(np.random.default_rng(0))


def test_numpy_integer_seed_is_the_int_seed(monkeypatch):
    # SeedSequence takes any integer, so the suite and make_instance do;
    # the report holds the seed as an int
    want = iq.run_suite([1, 2], 3, seed=5, case_ids=["eq1.2", "f-nu-shape"])
    got = iq.run_suite([1, 2], 3, seed=np.int64(5),
                       case_ids=["eq1.2", "f-nu-shape"])
    assert type(got.seed) is int
    assert ({**got.to_dict(), "elapsedSeconds": 0}
            == {**want.to_dict(), "elapsedSeconds": 0})
    (inst, rng), (twin, twin_rng) = (iq.make_instance(seed, 0, 2, 0)
                                     for seed in (np.int64(1), 1))
    for got, want in ((inst.a.eigenvectors, twin.a.eigenvectors),
                      (inst.b.eigenvalues, twin.b.eigenvalues),
                      (inst.x, twin.x), (rng.random(), twin_rng.random())):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    monkeypatch.setattr(iq, "_run_pass", _no_pass)
    with pytest.raises(TypeError):
        iq.run_suite([2], 2, seed=1.5, case_ids=["eq1.2"])


def test_numpy_integer_counts_are_int_counts(monkeypatch):
    # samples and dims are taken by operator.index, as the seed is: numpy
    # integers give the int report, and a float is a TypeError before
    # any pass is drawn
    want = iq.run_suite([1, 2], 3, seed=5, case_ids=["eq1.2"])
    got = iq.run_suite([np.int64(1), np.int32(2)], np.int64(3), seed=5,
                       case_ids=["eq1.2"])
    assert type(got.samples) is int
    assert [type(dim) for dim in got.dims] == [int, int]
    assert ({**got.to_dict(), "elapsedSeconds": 0}
            == {**want.to_dict(), "elapsedSeconds": 0})
    monkeypatch.setattr(iq, "_run_pass", _no_pass)
    for dims, samples in (([1.0], 3), ([1], 2.5)):
        with pytest.raises(TypeError):
            iq.run_suite(dims, samples, 1, case_ids=["eq1.2"])


def test_uniform_is_generator_uniform_bit_for_bit(monkeypatch):
    # against a twin stream drawing with Generator.uniform: the samplers'
    # scalars on every bound their draws meet, and the eigenvalue arrays
    # of both condition ranges
    uniform, calls = iq.uniform, []

    def twinned(rng, lo, hi, size=None):
        got, want = uniform(rng, lo, hi, size), twin.uniform(lo, hi, size)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        calls.append(size)
        return got

    monkeypatch.setattr(iq, "uniform", twinned)
    for cid in iq.CASE_IDS:
        for seed in range(40):
            rng, twin = (np.random.default_rng(seed) for _ in range(2))
            iq.REGISTRY[cid].sampler(rng)
    assert len(calls) > 40 * len(iq.CASE_IDS)
    for condition_range in (iq.DEFAULT_CONDITION_RANGE,
                            iq.FUZZ_CONDITION_RANGE):
        logs = iq.log_range(condition_range)
        for size in (1, 6, (256, 5)):
            rng, twin = (np.random.default_rng(3) for _ in range(2))
            twinned(rng, *logs, size)
            u = np.random.default_rng(3).random(size)
            assert (iq.to_interval(u, *logs).tobytes()
                    == np.random.default_rng(3).uniform(*logs, size).tobytes())

    rng = np.random.default_rng(0)
    for lo, hi in [(1.0, 0.5), (0.0, -1e-300)]:
        for size in (None, 3):
            with pytest.raises(ValueError):
                rng.uniform(lo, hi, size)
            with pytest.raises(ValueError):
                uniform(rng, lo, hi, size)


def test_criterion_1_minima_match_reference(criterion_1_report):
    # per-case and per-step minima recorded from the matrix-product
    # implementation that preceded the kernel-grid engine, at the
    # criterion-1 config (the fixture checks the file's)
    ref = json.loads(REFERENCE.read_text())
    report = criterion_1_report
    assert [c.id for c in report.cases] == list(ref["cases"])
    for case in report.cases:
        want = ref["cases"][case.id]
        assert len(case.steps) == len(want["steps"])
        for got, expected in zip([case.min_margin, *case.steps],
                                 [want["minMargin"], *want["steps"]]):
            assert got == pytest.approx(expected, abs=1e-13), case.id


def test_worst_margins_replay_from_their_seeds():
    seed = 17
    report = iq.run_suite([1, 2, 3, 4], 20, seed=seed)
    for case in report.cases:
        dim, sample = case.worst_seed
        inst, rng = iq.make_instance(seed, iq.CASE_IDS.index(case.id), dim,
                                     sample)
        params = iq.get_case(case.id).sampler(rng)
        _, normalized = iq._margins(iq.get_case(case.id),
                                    Frame.of(inst.a, inst.x, inst.b), params)
        replayed = float(np.min(normalized))
        assert replayed == pytest.approx(case.min_margin, abs=1e-13), case.id


@pytest.mark.parametrize("seed", range(1, 21))
def test_suite_sound_across_seeds(seed):
    report = iq.run_suite([1, 2, 3, 4, 5, 6], 5, seed=seed)
    assert report.total_violations == 0
    assert report.total_numerical_failures == 0


def nan_first_step(case):
    """The case with the first grid of its stack NaN: the left side of
    its first comparison, and of no other in eq1.2 and eq1.3."""
    def build(*args):
        grids, steps = case.builder(*args)
        grids[0] = np.nan
        return grids, steps
    return dataclasses.replace(case, builder=build)


def test_non_finite_margins_are_counted_not_passed(monkeypatch):
    monkeypatch.setitem(iq.REGISTRY, "eq1.3",
                        nan_first_step(iq.get_case("eq1.3")))
    report = iq.run_suite([1, 2], 4, seed=3, case_ids=["eq1.3"])
    case = report.cases[0]
    assert case.numerical_failures == 2 * 4
    assert report.total_numerical_failures == 2 * 4
    # the NaN step reports no minimum; the finite one still does
    assert case.steps[0] == np.inf
    assert np.isfinite(case.steps[1])
    assert case.min_margin == case.steps[1]


def test_svd_failure_counts_its_block(monkeypatch):
    # LAPACK fails on every stack it is given: those of the dim-3 cells,
    # as orders 1 and 2 take the closed forms and never reach it
    fail_lapack(monkeypatch)
    report = iq.run_suite([1, 3], 4, seed=3, case_ids=["eq1.3", "eq1.2"])
    # every (step, sample) margin of the dim-3 cells fails; dim 1 is checked
    assert [c.numerical_failures for c in report.cases] == [2 * 4, 1 * 4]
    assert all(np.isfinite(c.min_margin) for c in report.cases)


def test_margins_hold_their_own_error_state():
    # eq1.2 at nu = 800 overflows cosh in its Heinz kernel: called outside
    # any np.errstate, _margins warns of nothing, and its normalized
    # margins are not finite
    frame = Frame(np.array([4.0, 0.25]), np.array([0.25, 4.0]),
                  np.eye(2, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, normalized = iq._margins(iq.get_case("eq1.2"), frame,
                                    {"nu": 800.0, "alpha": 0.5})
    assert not np.isfinite(normalized).any()


@pytest.mark.parametrize("nu, alpha", [(0.3, 0.5), (0.25, 0.5), (0.4, 2.0)])
def test_eq12_small_spread_limit_at_dim_1(nu, alpha):
    # a = e^s, b = e^-s give d = s and log_geo = 0, so the scaled Xt is y;
    # Heron minus Heinz is (alpha - (1 - 2 nu)^2) s^2 / 2 + O(s^4) times
    # |y|, over the scale 1 + |y| + O(s^2)
    s, y = 1e-3, 0.7 - 0.4j
    frame = Frame(np.array([np.exp(s)]), np.array([np.exp(-s)]),
                  np.array([[y]]))
    _, normalized = iq._margins(iq.get_case("eq1.2"), frame,
                                {"nu": nu, "alpha": alpha})
    kappa, w = (alpha - (1 - 2 * nu) ** 2) / 2, abs(y)
    assert normalized.item() / s**2 == pytest.approx(kappa * w / (1 + w),
                                                     rel=1e-5)


@pytest.mark.parametrize("nu, alpha", [(0.3, 0.5), (0.25, 0.5), (0.4, 2.0),
                                       (0.7, 1.0)])
def test_eq13_share_limit_at_dim_1(nu, alpha):
    # a = e^s, b = e^-s give d = s and log_geo = 0, so the scaled Xt is y;
    # Heinz minus geometric and Heron minus Heinz both vanish like s^2,
    # with kappa_g = g''(0) / 2 of each kernel, so the share of the Heinz
    # mean between its bounds tends to (kappa_Heinz - kappa_geo) /
    # (kappa_Heron - kappa_geo) = (2 nu - 1)^2 / alpha; 1/2 at (1/4, 1/2)
    s, y = 1e-3, 0.7 - 0.4j
    frame = Frame(np.array([np.exp(s)]), np.array([np.exp(-s)]),
                  np.array([[y]]))
    raw, _ = iq._margins(iq.get_case("eq1.3"), frame,
                         {"nu": nu, "alpha": alpha})
    m_lo, m_hi = raw.reshape(2)
    assert m_lo / (m_lo + m_hi) == pytest.approx((2 * nu - 1) ** 2 / alpha,
                                                 rel=1e-5)


@pytest.mark.parametrize("p", [0.1, 1.0, 6.0])
def test_f_nu_shape_ratios_are_sech_and_ordered_cosh_ratios(p):
    # the 41 nodes nu have exponents e = 2 nu - p = -2, -1.9, ..., 2
    # whatever p is, and each kernel is 2 cosh(e d): a convexity ratio
    # 2 g_i / (g_(i-1) + g_(i+1)) is sech(0.1 d), a V-shape ratio is
    # cosh(e_in d) / cosh(e_out d) with the inner exponent the smaller in
    # modulus; all of them are 1 at d = 0
    d = np.linspace(-40.0, 40.0, 801)
    grids, (v_shape, convex) = iq._build_f_nu_shape(d, {"p": p})

    def ratio(step):
        lhs, rhs = ([c * grids[i] for c, i in terms]
                    for terms in (step.lhs, step.rhs))
        return sum(lhs) / sum(rhs)

    convexity = ratio(convex)
    assert convexity.shape == (39, d.size)
    np.testing.assert_allclose(convexity, np.broadcast_to(
        1.0 / np.cosh(0.1 * d), convexity.shape), rtol=1e-13, atol=0)
    e = np.arange(-20, 21) / 10.0
    first_inner = np.abs(e[:-1]) <= np.abs(e[1:])
    e_in = np.where(first_inner, e[:-1], e[1:])[:, None]
    e_out = np.where(first_inner, e[1:], e[:-1])[:, None]
    v = ratio(v_shape)
    assert v.shape == (40, d.size)
    np.testing.assert_allclose(v, np.cosh(e_in * d) / np.cosh(e_out * d),
                               rtol=1e-13, atol=0)
    at_zero = d.size // 2
    assert d[at_zero] == 0.0
    assert np.all(convexity[:, at_zero] == 1.0)
    assert np.all(v[:, at_zero] == 1.0)


def test_report_round_trip():
    report = iq.run_suite([2], 3, seed=5)
    restored = iq.VerificationReport.from_dict(report.to_dict())
    assert restored.to_dict() == report.to_dict()


def test_report_without_numerical_failures_field_loads():
    d = iq.run_suite([2], 2, seed=5).to_dict()
    for c in d["cases"]:
        del c["numericalFailures"]
    restored = iq.VerificationReport.from_dict(d)
    assert restored.total_numerical_failures == 0


def test_fuzz_counts_are_int_counts():
    # budget and dim are taken by operator.index: numpy integers run as
    # ints do, and a float is a TypeError before the stream is drawn from
    case, overrides = iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5}
    want = iq.fuzz(case, overrides, 30, np.random.default_rng(0), dim=2)
    got = iq.fuzz(case, overrides, np.int64(30), np.random.default_rng(0),
                  dim=np.int64(2))
    assert type(got.evaluations) is int
    assert (got.margin, got.normalized_margin) == (
        want.margin, want.normalized_margin)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for counts in ({"budget": 30.0, "dim": 2}, {"budget": 30, "dim": 2.0}):
        with pytest.raises(TypeError):
            iq.fuzz(case, overrides, rng=rng, **counts)
        assert rng.bit_generator.state == state


def test_fuzz_rejects_unknown_parameter():
    from meanforge.errors import UnknownParameterError
    with pytest.raises(UnknownParameterError):
        iq.fuzz(iq.get_case("eq1.2"), {"nuu": 0.1}, 10,
                np.random.default_rng(0))


@pytest.mark.parametrize("kwargs", [
    {"budget": 0},  # would run one evaluation, over its budget
    {"dim": 0},
    {"tolerance": float("nan")},  # would pass a raw margin of -8.79
    {"tolerance": -1.0},
    # would spend its budget on NaN margins
    {"overrides": {"nu": float("nan"), "alpha": 0.5}},
], ids=["budget-0", "dim-0", "nan-tolerance", "negative-tolerance",
        "nan-override"])
def test_fuzz_rejects_degenerate_input(kwargs):
    run = {"overrides": {"nu": 0.1, "alpha": 0.5}, "budget": 30, "dim": 1,
           **kwargs}
    with pytest.raises(ValueError):
        iq.fuzz(iq.get_case("eq1.2"), rng=np.random.default_rng(0), **run)


# (case, overrides, budget, dim) whose witness has no finite margin, at
# seed 0: the inputs of FUZZ_EQ11_POLE, FUZZ_NU_800 with budget 3 and
# FUZZ_EQ213_POLE in test_cli.py
NON_FINITE_FUZZ = {
    "eq1.1-pole": ("eq1.1", {"t": -2.0}, 12, 2),
    "eq1.2-nu-800": ("eq1.2", {"nu": 800.0, "alpha": 0.5}, 3, 1),
    "eq2.13-pole": ("eq2.13", {"p": 0.5, "r": 0.25}, 30, 2),
}


@pytest.mark.parametrize("cid, overrides, budget, dim",
                         NON_FINITE_FUZZ.values(), ids=list(NON_FINITE_FUZZ))
def test_fuzz_non_finite_witness_raises(cid, overrides, budget, dim):
    with pytest.raises(NumericalFailureError):
        iq.fuzz(iq.get_case(cid), overrides, budget,
                np.random.default_rng(0), dim=dim)


@pytest.mark.parametrize("budget", [3, 30])
def test_fuzz_large_degree_keeps_its_witness_finite(budget):
    # logs within +-300/p keep X = (ab)^(-p/2) o Y finite at p = 400:
    # every run ends with finite margins and a witness that io writes and
    # loads back unchanged
    case = iq.get_case("f-nu-shape")
    for seed in range(4):
        f = iq.fuzz(case, {"p": 400.0}, budget, np.random.default_rng(seed),
                    dim=2)
        assert np.isfinite([f.margin, f.normalized_margin]).all(), seed
        loaded = io.instance_from_dict(
            json.loads(json.dumps(io.instance_to_dict(f.instance))))
        for m, want in ((loaded.a.matrix, f.instance.a.matrix),
                        (loaded.b.matrix, f.instance.b.matrix),
                        (loaded.x, f.instance.x)):
            assert np.isfinite(want).all() and np.array_equal(m, want)


def test_fuzz_out_of_range_finds_violation():
    rng = np.random.default_rng(0)
    finding = iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5},
                      1000, rng, dim=1)
    assert finding.evaluations <= 1000
    assert finding.margin <= -2.0
    assert finding.violation


def hook_stacks(monkeypatch, rig=None) -> list:
    """Wrap inequalities._instance_margin: the size of each frame stack it
    scores goes to the returned list, and rig(call, raw, frame) may
    change the stack's worst raw margins in place."""
    sizes, margin = [], iq._instance_margin

    def hooked(case, frame, params):
        raw = margin(case, frame, params)
        sizes.append(len(raw))
        if rig is not None:
            rig(len(sizes) - 1, raw, frame)
        return raw

    monkeypatch.setattr(iq, "_instance_margin", hooked)
    return sizes


def hook_lowest(monkeypatch, start=None) -> list:
    """Record (points, (rank, point)) of every inequalities._lowest call,
    its blocks joined by np.concatenate: the one call of all restarts
    first, then each sweep's moves.  With a ``start`` point, the restart
    blocks are replaced by that one point, so that it is the best
    restart."""
    found, lowest = [], iq._lowest

    def hooked(case, params, n, blocks):
        if start is not None and not found:
            blocks = [start[None]]
        blocks = list(blocks)
        found.append((np.concatenate(blocks),
                      lowest(case, params, n, blocks)))
        return found[-1][1]

    monkeypatch.setattr(iq, "_lowest", hooked)
    return found


def replay_sweeps(found, dim):
    """(moves, z, step, x_scale) of each sweep that hook_lowest recorded
    after its restart call, replayed from the first best restart by the
    descent's rule."""
    best, z = found[0][1]
    x_scale = max(1.0, np.max(np.abs(iq._unpack(z, dim)[2])))
    step = 0.5
    for moves, (rank, point) in found[1:]:
        yield moves, z, step, x_scale
        if rank < best - 1e-15:
            best, z = rank, point
        else:
            step /= 2


def lands_at(inst, z) -> bool:
    """Whether the witness inst is written from the point z of a case of
    degree 1, bit for bit up to the witness's sort of the eigenvalues:
    its eigenvalues are exp of z's logs less their mean, sorted
    descending, and its frame's Xt is (ab)^(-1/2) o Y under the sort
    permutations."""
    la, lb, y = iq._unpack(z, inst.dim)
    shift = np.mean(z[:2 * inst.dim])
    ea, eb = np.exp(la - shift), np.exp(lb - shift)
    x = Frame(ea, eb, y).scaled(-1.0)
    pa, pb = (np.argsort(-e, kind="stable") for e in (ea, eb))
    return bool(np.array_equal(inst.a.eigenvalues, ea[pa])
                and np.array_equal(inst.b.eigenvalues, eb[pb])
                and np.array_equal(Frame.of(inst.a, inst.x, inst.b).xt,
                                   x[pa][:, pb]))


def test_fuzz_nan_restart_never_stays_best(monkeypatch):
    # the first random restart of the stack evaluates to NaN and so does
    # every descent candidate: a finite restart must be the finding.
    # Budget 30 has 10 restarts, one stack and so the first call.
    def first_nan(call, raw, frame):
        if call:  # a descent sweep
            raw[:] = np.nan
        else:
            raw[0] = np.nan

    sizes = hook_stacks(monkeypatch, first_nan)
    found = hook_lowest(monkeypatch)
    finding = iq.fuzz(iq.get_case("eq1.3"), {}, 30, np.random.default_rng(1))
    assert sizes[0] == 10 and len(sizes) > 1
    _, (rank, z) = found[0]
    assert np.isfinite(rank)
    assert lands_at(finding.instance, z)
    assert np.isfinite(finding.margin)
    assert np.isfinite(finding.normalized_margin)


def test_fuzz_descent_leaves_a_nan_best(monkeypatch):
    # every random restart is NaN; the first finite candidate replaces it
    def nan_restarts(call, raw, frame):
        if call == 0:  # the one restart stack of budget 30
            raw[:] = np.nan

    sizes = hook_stacks(monkeypatch, nan_restarts)
    found = hook_lowest(monkeypatch)
    finding = iq.fuzz(iq.get_case("eq1.3"), {}, 30, np.random.default_rng(1))
    assert sizes[0] == 10 and len(sizes) > 1
    _, (rank, z) = found[0]
    assert rank == np.inf  # the rank of a NaN margin
    assert not lands_at(finding.instance, z)
    assert np.isfinite(finding.margin)
    assert np.isfinite(finding.normalized_margin)


def test_fuzz_descent_never_takes_an_infinite_move(monkeypatch):
    # every move of the first sweep scores -inf, which ranks as +inf: the
    # sweep only halves the step, as one whose moves all score +inf does
    def finding(value):
        def first_sweep(call, raw, frame):
            if call == 1:
                raw[:] = value

        with monkeypatch.context() as m:
            sizes = hook_stacks(m, first_sweep)
            f = iq.fuzz(iq.get_case("eq1.3"), {}, 30,
                        np.random.default_rng(1))
        # one finite restart stack, then the sweeps
        assert sizes[0] == 10 and len(sizes) > 1
        assert np.isfinite(f.margin)
        return f

    low, high = finding(-np.inf), finding(np.inf)
    assert (low.margin, low.normalized_margin, low.evaluations) == (
        high.margin, high.normalized_margin, high.evaluations)
    assert np.array_equal(low.instance.x, high.instance.x)


# Findings of the eigenframe fuzzer: (case, overrides, dim, budget, seed)
# -> float.hex of the raw and normalized margins, evaluations and the
# first 16 hex digits of the SHA-256 of the witness's eigenvalues,
# eigenvectors and X.  Budget 1000 has 333 restarts, more than one
# CELL_BLOCK.  They were last recorded anew when the search moved to
# the degree-free point (log a, log b, Y), Y scored as the scaled Xt,
# with the witness X = (ab)^(-p/2) o Y on logs less their mean: the
# search ranks other numbers, so margins and digests moved, and every
# entry kept its evaluations and its violation flag (the comments).  No
# QR is left in the search, and singular values of order 1 and 2 are
# taken in closed form, so the dims-1-2 bits do not depend on LAPACK;
# those of dims 3-4 depend on its SVD rounding.  They were recorded with
# numpy 2.4.6 on scipy-openblas 0.3.31 (x86_64, one BLAS thread), so on
# another BLAS build a mismatch at dims 3-4 need not mean that the
# search changed.  ``PYTHONPATH=src python tests/test_inequalities.py``
# prints the list as this setup finds it.
FUZZ_GOLDEN = [
    (("eq1.2", {"nu": 0.1, "alpha": 0.5}, 4, 300, 0),
     ("-0x1.49818c1c2a470p+0", "-0x1.0bc690c329a19p-4", 300,
      "8e5adc380a315e87")),  # violation: True
    (("eq2.9", {"nu": 0.05, "alpha": 0.5}, 4, 1000, 1),
     ("-0x1.5806826ebbb01p+11", "-0x1.5218445949ea0p+2", 1000,
      "3696f51909948932")),  # violation: True
    (("eq1.4-chain", {"alpha": 0.2}, 2, 1000, 2),
     ("-0x1.51ae074545588p+4", "-0x1.44b7bbcabbe94p-3", 1000,
      "22bc5c2de136062e")),  # violation: True
    (("eq1.4-chain", {"alpha": 0.5}, 3, 300, 3),
     ("0x1.3015d86bf4b80p-6", "0x1.f6b530d718d12p-9", 300,
      "494cfb93e136a2ac")),  # violation: False
    (("eq1.2", {"nu": 0.3, "alpha": 0.5}, 2, 1000, 4),
     ("0x1.3b3f61d900000p-19", "0x1.45144ded26af8p-20", 1000,
      "2a9e24bad2fd3050")),  # violation: False
]


def golden_of(config) -> tuple:
    """(FUZZ_GOLDEN entry, finding) of a fresh fuzz run of config."""
    cid, overrides, dim, budget, seed = config
    f = iq.fuzz(iq.get_case(cid), dict(overrides), budget,
                np.random.default_rng(seed), dim=dim)
    digest = hashlib.sha256()
    for arr in (f.instance.a.eigenvalues, f.instance.a.eigenvectors,
                f.instance.b.eigenvalues, f.instance.b.eigenvectors,
                f.instance.x):
        digest.update(arr.tobytes())
    return (f.margin.hex(), f.normalized_margin.hex(), f.evaluations,
            digest.hexdigest()[:16]), f


@pytest.mark.parametrize("config, expected", FUZZ_GOLDEN,
                         ids=[f"{c[0]}-dim{c[2]}-budget{c[3]}"
                              for c, _ in FUZZ_GOLDEN])
def test_fuzz_findings_unchanged(config, expected):
    got, f = golden_of(config)
    assert got == expected
    assert f.violation == (f.normalized_margin < -iq.DEFAULT_TOLERANCE)


# Reports of run_suite(range(1, 7), 20, seed): case id -> float.hex of
# its minMargin and the first 16 hex digits of the SHA-256 of its
# per-step minima, as float.hex joined by commas.  Dims 1-2 take their
# singular values in closed form; dims 3-6 depend on LAPACK's SVD
# rounding, so they hold for the numpy and BLAS build FUZZ_GOLDEN names.
# ``PYTHONPATH=src python tests/test_inequalities.py`` prints the list
# as this setup finds it.
REPORT_GOLDEN = [
    (20240801, {
        "eq1.1": ("0x1.d8b68c4826616p-13", "0a11679bef158222"),
        "eq1.2": ("0x1.33797f2bb9430p-17", "05b145e6f61cebd6"),
        "eq1.3": ("0x1.1ea6576467555p-15", "333386704067d049"),
        "refAli": ("0x1.d663314c8c6c8p-17", "18525a6c5605a9d6"),
        "eq1.4-chain": ("0x1.6445ca72f027fp-27", "8c347d3b97eba525"),
        "eq1.4-alpha-mono": ("0x1.48932552135d9p-15", "8ab72d4d8258ee81"),
        "eq2.2": ("0x1.c92aaf69069dcp-14", "c3bb9e82e6ce92a7"),
        "eq2.3": ("0x1.86503b953ba63p-14", "3388944253008836"),
        "eq2.7": ("0x1.c6e955ab6f1dcp-12", "f51c8017e174ee8e"),
        "eq2.8": ("0x1.882b68812a08dp-20", "ad9d1ab218220622"),
        "eq2.9": ("0x1.63f7d65dfbfd4p-20", "d3f62f1cfc6d3cf0"),
        "avg-12": ("0x1.e22962c82e5a1p-11", "63705ef1ce6ffb81"),
        "avg-14": ("0x1.1032a792c9b92p-11", "8cc58554f96c4064"),
        "avg-716": ("0x1.97f24320b72a0p-11", "e556371cfeed8e07"),
        "avg-516": ("0x1.4af234b8c69dbp-17", "b8c15dd95b71771f"),
        "eq2.10": ("0x1.206a05a3936c4p-11", "dfab8377630ea0a2"),
        "eq2.11": ("0x1.9f82fa99fe345p-12", "dc0dc85811800679"),
        "eq2.12": ("0x1.6e41a4eef1861p-7", "775d7ccdd777fea1"),
        "eq2.13": ("0x1.d6c85efbe7c60p-6", "be9c029e97a8a9cd"),
        "f-nu-shape": ("0x1.08dc09aedd60cp-19", "8dd1ec1c4a2441b2"),
        "prop2.1-1": ("0x1.e03bd66a08dc1p-28", "5b8f5d98e663469a"),
        "prop2.1-2": ("0x1.4e74ea5d291b4p-12", "fc901f62844dc31c"),
        "prop2.1-3": ("0x1.f8fda235dc6bdp-6", "5ee4ac32c88304bc"),
        "prop2.1-4": ("0x1.37e2566d97387p-6", "cbdf173f352e2538"),
    }),
    (7, {
        "eq1.1": ("0x1.35db7f660b5a0p-14", "f05fd75b2f07dad0"),
        "eq1.2": ("0x1.416d7e243e90cp-17", "d68298f5a17c2880"),
        "eq1.3": ("0x1.6ea044ff04205p-18", "5390bba91b337bb0"),
        "refAli": ("0x1.593aa9498b1fcp-12", "d73e673b5a836d48"),
        "eq1.4-chain": ("0x1.d934fa8b21dadp-19", "b48baea7bcafe54e"),
        "eq1.4-alpha-mono": ("0x1.09d197b5227f4p-11", "395c0d6ebf8d5df8"),
        "eq2.2": ("0x1.fae531a84869bp-17", "5946ef50fe9823b7"),
        "eq2.3": ("0x1.4d3943b52b5c2p-9", "6ccaff0622834cfa"),
        "eq2.7": ("0x1.8a649698ed320p-15", "632d4b1394e72fd6"),
        "eq2.8": ("0x1.59a9a3330a1dfp-14", "c8f4311cf51b62ff"),
        "eq2.9": ("0x1.b3bf18805d0c3p-15", "e62ce2e147215841"),
        "avg-12": ("0x1.5df30d002b96fp-9", "1f9be64041d5abc0"),
        "avg-14": ("0x1.91e102d0dc1f4p-14", "7b9d2f14179b09ab"),
        "avg-716": ("0x1.2d29e3e9ebc40p-11", "db8bed0f157b6323"),
        "avg-516": ("0x1.df1b9c1899781p-26", "eefa750bf36e29f6"),
        "eq2.10": ("0x1.04665611576f9p-11", "c69f6ae87dd3e4e6"),
        "eq2.11": ("0x1.109dfa90029f2p-7", "196f9fc05c881b90"),
        "eq2.12": ("0x1.bf2668d72b815p-11", "d9afc145d66bda34"),
        "eq2.13": ("0x1.24ca7ba5b0592p-7", "dd2aaa71761512f7"),
        "f-nu-shape": ("0x1.165c0ee86fa41p-23", "2ec899c0473eb558"),
        "prop2.1-1": ("0x1.7028782fe5ab0p-13", "ae9662f4887d4c7e"),
        "prop2.1-2": ("0x1.5ca9516ac47e6p-14", "d28199ae223ab674"),
        "prop2.1-3": ("0x1.d4c038c74292dp-6", "ecd6be2c07a042d0"),
        "prop2.1-4": ("0x1.459fd05d8cf2ep-7", "e70a4ad29e563bb4"),
    }),
    (90210, {
        "eq1.1": ("0x1.30586dc322d18p-8", "d3d691dcd5fc7123"),
        "eq1.2": ("0x1.4ebefc380db79p-6", "97caa439a757d0ec"),
        "eq1.3": ("0x1.32a81cafa9034p-20", "30e32793bb0f6644"),
        "refAli": ("0x1.2a283b23481c7p-11", "3c200dbcf1cd3e2d"),
        "eq1.4-chain": ("0x1.ffac7263e5409p-20", "15409fc4d757490e"),
        "eq1.4-alpha-mono": ("0x1.883a1125fd133p-18", "5e48de4958ff097e"),
        "eq2.2": ("0x1.03d6327bae1c7p-18", "2438c82813c0b22b"),
        "eq2.3": ("0x1.677d1530455eep-12", "6bc88d55913b295d"),
        "eq2.7": ("0x1.2a23e7ba52fd7p-12", "f223dbd929a8448f"),
        "eq2.8": ("0x1.c641cbee213a3p-12", "4b4c33d5d8a683cc"),
        "eq2.9": ("0x1.5a9f2597facaep-19", "9884b82dc09680f4"),
        "avg-12": ("0x1.70b7c54a24fbep-13", "e128d3e7f4559f92"),
        "avg-14": ("0x1.c76da6eb0b850p-11", "9d5ffc0e3e1b6701"),
        "avg-716": ("0x1.294236bce7587p-10", "a1c49726d0c99937"),
        "avg-516": ("0x1.25d136f4cce92p-19", "a5cb32c08db17d23"),
        "eq2.10": ("0x1.af5b48b5defbap-11", "f7b1962627995e00"),
        "eq2.11": ("0x1.930e2470bb10bp-9", "a0cb36fb6c7d6689"),
        "eq2.12": ("0x1.e2ab2077082c9p-8", "685cd254f0b3afb4"),
        "eq2.13": ("0x1.c7a6278cadaa4p-11", "d186ae9658bfd563"),
        "f-nu-shape": ("0x1.58cf76ea9e33dp-18", "aa60c4b5ffd28cc5"),
        "prop2.1-1": ("0x1.32b641998c02dp-19", "f46674ff5dea844b"),
        "prop2.1-2": ("0x1.1c2c1faa11b27p-12", "4372cae1ad42ee82"),
        "prop2.1-3": ("0x1.51d9cfb8d25c7p-5", "7d51fc2c15c83174"),
        "prop2.1-4": ("0x1.87b1b2038ed60p-6", "ac44ad8042072887"),
    }),
]


def report_golden_of(seed: int) -> dict:
    """The REPORT_GOLDEN entry of a fresh run_suite at seed."""
    report = iq.run_suite(range(1, 7), 20, seed)
    return {c.id: (float(c.min_margin).hex(), hashlib.sha256(
        ",".join(map(float.hex, c.steps)).encode()).hexdigest()[:16])
        for c in report.cases}


@pytest.mark.parametrize("seed, expected", REPORT_GOLDEN,
                         ids=[str(s) for s, _ in REPORT_GOLDEN])
def test_reports_unchanged(seed, expected):
    got = report_golden_of(seed)
    assert list(got) == list(expected)
    assert {cid: v for cid, v in got.items() if v != expected[cid]} == {}


@pytest.mark.parametrize("seed", [s for s, _ in REPORT_GOLDEN])
def test_report_rows_replay_exactly(seed):
    # every row's worstSeed [dim, sample], drawn as a one-sample pass and
    # scored as the suite scores a piece, gives back its minMargin bit
    # for bit; make_instance and Frame.of score HpdMatrix's sorted frame,
    # where LAPACK's SVD from dim 3 on agrees only to rounding
    report = iq.run_suite(range(1, 7), 20, seed)
    assert [row.id for row in report.cases] == list(iq.CASE_IDS)
    for row in report.cases:
        dim, sample = row.worst_seed
        block, = iq._draw_pass(seed, dim, [(row.id, [sample])],
                               linalg.DEFAULT_CONDITION_RANGE)
        replay = iq._run_case_dim((row.id, report.tolerance, dim, *block))
        assert ((replay.min_margin, replay.worst_seed)
                == (row.min_margin, row.worst_seed)), row.id


@st.composite
def degree_free_points(draw, case):
    """(params, points): parameters the case's sampler draws, and for
    each dim n of 1-4 a point z = (log a, log b, Re Y, Im Y) of 2n + 2n^2
    reals, with logs in the log range of FUZZ_CONDITION_RANGE and Y
    entries in [-3, 3]."""
    params = case.sampler(np.random.default_rng(draw(st.integers(0, 999))))
    logs = st.floats(*log_range(iq.FUZZ_CONDITION_RANGE))
    points = []
    for n in (1, 2, 3, 4):
        z = draw(st.lists(logs, min_size=2 * n, max_size=2 * n))
        z += draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * n * n,
                           max_size=2 * n * n))
        points.append(np.array(z))
    return params, points


@pytest.mark.parametrize("cid", iq.CASE_IDS)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_fuzz_scores_the_margins_of_its_witness(cid, data):
    # the degree-free reduction: the worst raw margin by which the search
    # ranks a point (log a, log b, Y) is the one evaluate gives the
    # witness written from it, X = (ab)^(-p/2) o Y, to within 1e-12 of
    # the scale, at dims 1-4
    case = iq.get_case(cid)
    params, points = data.draw(degree_free_points(case))
    for dim, z in enumerate(points, 1):
        rank, _ = iq._lowest(case, params, dim, [z[None]])
        inst = iq._witness(z, dim, params)
        frame = Frame.of(inst.a, inst.x, inst.b)
        _, scales = iq.step_margins(*case.builder(frame.d, params),
                                    frame.scaled(params.get("p", 1.0)))
        want = min(float(np.min(m)) for m in iq.evaluate(case, inst, params))
        assert abs(rank - want) <= 1e-12 * np.max(scales), dim


def test_fuzz_draws_no_unitary(monkeypatch):
    # margins depend on the frame point only, so the restarts are frame
    # points and the witness is the frame itself: no QR anywhere, and A
    # and B diagonal
    def refuse(*args, **kwargs):
        raise AssertionError("fuzz drew a unitary")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(linalg, "gaussian_unitary", refuse)
    monkeypatch.setattr(iq, "_unitary_of", refuse)
    f = iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5}, 300,
                np.random.default_rng(0), dim=3)
    assert f.violation
    for m in (f.instance.a.matrix, f.instance.b.matrix):
        assert np.array_equal(m, np.diag(m.diagonal()))


def test_fuzz_restarts_are_frame_points(monkeypatch):
    # a case that draws no parameter leaves the stream to the restarts:
    # budget 3 is one restart, the point _restart draws
    found = hook_lowest(monkeypatch)
    for dim in (1, 3):
        found.clear()
        iq.fuzz(iq.get_case("eq1.4-alpha-mono"), {}, 3,
                np.random.default_rng(dim), dim=dim)
        assert found[0][0].tobytes() == _restart(dim, seed=dim)[None].tobytes()


def test_fuzz_scores_frames_not_matrices(monkeypatch):
    # one step_margins call per stack of restarts or of descent moves,
    # through _instance_margin, and one on the witness's frame, through
    # _margins; the witness is the only HpdMatrix built
    sizes, built = [], []
    margin = iq.step_margins
    spectrum = iq.HpdMatrix.from_spectrum.__func__

    def counted(grids, steps, xt):
        sizes.append(np.shape(xt)[:-2])
        return margin(grids, steps, xt)

    def counted_spectrum(cls, *args):
        built.append(None)
        return spectrum(cls, *args)

    monkeypatch.setattr(iq, "step_margins", counted)
    monkeypatch.setattr(iq.HpdMatrix, "from_spectrum",
                        classmethod(counted_spectrum))
    f = iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5}, 1000,
                np.random.default_rng(0), dim=2)
    assert f.evaluations == 1000
    # 333 restarts as stacks of 256 and 77, then sweeps of 2 (2n + 2n^2)
    # = 24 moves, the last one cut to what is left of the budget, then
    # the witness's single frame
    stacks = [s[0] for s in sizes[:-1]]
    assert stacks[:2] == [256, 77]
    assert stacks[2:-1] == [24] * (len(stacks) - 3) and 0 < stacks[-1] <= 24
    assert sum(stacks) == 1000
    assert sizes[-1] == ()
    assert len(built) == 2


def _sweep(z, dim, step, x_scale):
    """A sweep's candidate stack around the point z, written as a loop:
    coordinate j moved by +step, then -step, times 1 for the logs
    (clipped to +-80) and x_scale for Xt."""
    cands = []
    for j in range(len(z)):
        for sign in (1.0, -1.0):
            c = z.copy()
            if j < 2 * dim:
                c[j] = np.clip(c[j] + sign * step, -80.0, 80.0)
            else:
                c[j] += sign * step * x_scale
            cands.append(c)
    return np.array(cands)


def _tiled_moves(z, step, count, scale, n):
    """A sweep's first count moves as the fuzzer built them before its
    direction table: z tiled once per move, each move's coordinate
    stepped by a fancy-index add, the logs clipped to +-80."""
    r = np.arange(count)
    j = r // 2
    cand = np.tile(z, (count, 1))
    cand[r, j] += np.where(r % 2, -step, step) * scale[j]
    cand[:, :2 * n] = np.clip(cand[:, :2 * n], -80.0, 80.0)
    return cand


# budgets that end in a sweep cut short: after 20, 36 and 302 restarts
# (one _lowest call; at dim 8 two blocks, 256 and 46), sweeps of 8, 24
# and 288 moves (two blocks, 256 and 32) and a last one of 1, 1 and 29
TILED_BUDGETS = {1: 61, 2: 109, 8: 907}


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_direction_table_moves_equal_tiled_moves(monkeypatch, dim):
    # bit for bit, signed zeros included: every sweep of a descent that
    # starts near the clip bounds, the whole ones and the last
    start = _restart(dim, seed=dim)
    start[:2] = 79.8, -79.9
    start[-2:] = 0.0, -0.0
    budget = TILED_BUDGETS[dim]
    found = hook_lowest(monkeypatch, start)
    f = iq.fuzz(iq.get_case("eq1.3"), {}, budget,
                np.random.default_rng(dim), dim=dim)
    sweeps = list(replay_sweeps(found, dim))
    assert f.evaluations == budget
    assert sum(len(s[0]) for s in sweeps) == budget - budget // 3
    assert 0 < len(sweeps[-1][0]) < len(sweeps[0][0]) == 2 * len(start)
    for moves, z, step, x_scale in sweeps:
        scale = np.where(np.arange(len(z)) < 2 * dim, 1.0, x_scale)
        want = _tiled_moves(z, step, len(moves), scale, dim)
        assert moves.tobytes() == want.tobytes(), step


def _restart(dim, seed):
    """The frame point z of one random restart drawn as the fuzzer
    draws: the logs of a and b, then Xt."""
    rng = np.random.default_rng(seed)
    logs = iq.uniform(rng, *log_range(iq.FUZZ_CONDITION_RANGE), 2 * dim)
    xt = random_complex(dim, rng).reshape(-1)
    return np.concatenate([logs, xt.real, xt.imag])


def test_sweep_moves_follow_the_coordinate_order(monkeypatch):
    # the stacks the fuzzer scores are the restarts, then the loop-built
    # sweeps around each accepted point
    found = hook_lowest(monkeypatch)
    dim = 2
    iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5}, 300,
            np.random.default_rng(7), dim=dim)
    sweeps = list(replay_sweeps(found, dim))
    for moves, z, step, x_scale in sweeps:
        want = _sweep(z, dim, step, x_scale)[:len(moves)]
        assert np.array_equal(moves, want)
    assert len(sweeps) > 3


@pytest.mark.parametrize("cid, overrides, dim", [
    ("eq1.2", {"nu": 0.1, "alpha": 0.5}, 1),
    ("eq2.9", {"nu": 0.05, "alpha": 0.5}, 3),
    ("f-nu-shape", {}, 4),
])
def test_sweep_stack_scores_as_single_frames(monkeypatch, cid, overrides,
                                             dim):
    # a sweep scored as one stack gives each point the bits it gets on its
    # own single frame, whose log_geo is 0 so that Y is its scaled Xt
    case = iq.get_case(cid)
    params = {**case.sampler(np.random.default_rng(dim)), **overrides}
    cands = _sweep(_restart(dim, seed=dim), dim, 0.5, 1.5)
    margin, raws = iq._instance_margin, []
    hook_stacks(monkeypatch, lambda call, raw, frame: raws.extend(raw))
    iq._lowest(case, params, dim, [cands])
    assert len(raws) == len(cands)
    for c, r in zip(cands, raws):
        la, lb, y = iq._unpack(c, dim)
        frame = Frame(np.exp(la), np.exp(lb), y)
        frame.log_geo = np.zeros_like(frame.d)
        assert r.hex() == float(margin(case, frame, params)).hex()


def test_lowest_over_blocks_keeps_a_copy_of_the_first_lowest():
    # blocks ranked as they come give the rank and point that one block of
    # them all gives, and the point is a copy that keeps no block alive;
    # the lowest is in the middle block, so one block replaces the best
    # and one does not
    case = iq.get_case("eq1.3")
    params = case.sampler(np.random.default_rng(0))
    blocks = [_sweep(_restart(2, seed=s), 2, 0.5, 1.5) for s in (2, 1, 3)]
    rank, point = iq._lowest(case, params, 2, iter(blocks))
    want_rank, want = iq._lowest(case, params, 2, [np.concatenate(blocks)])
    assert (rank, point.tobytes()) == (want_rank, want.tobytes())
    assert (blocks[1] == point).all(axis=1).any()
    assert point.base is None


def _fuzz_points(dim, seed, count=12) -> np.ndarray:
    """count fuzz points z of one dim: logs uniform on [-80, 80], the
    fuzzer's largest range, with a and b of the first two points at +80
    and -80 and at -80 and +80, and Y standard complex Gaussian, times
    1e300 on those two so that their kernel grids times Y overflow."""
    rng = np.random.default_rng(seed)
    z = np.empty((count, 2 * dim + 2 * dim * dim))
    z[:, :2 * dim] = iq.uniform(rng, -80.0, 80.0, (count, 2 * dim))
    z[0, :2 * dim] = np.repeat([80.0, -80.0], dim)
    z[1, :2 * dim] = np.repeat([-80.0, 80.0], dim)
    y = random_complex(dim, rng, count).reshape(count, -1)
    y[:2] *= 1e300
    z[:, 2 * dim:2 * dim + dim * dim], z[:, 2 * dim + dim * dim:] = (
        y.real, y.imag)
    return z


@pytest.mark.parametrize("cid", iq.CASE_IDS)
def test_instance_margin_is_the_verdict_stage_on_y(cid):
    # the ranking call scores Y as the scaled Xt without the verdict
    # stage's rescale and normalization: bit for bit the worst raw margin
    # that _margins gives on the same frame with log_geo zeroed, where
    # exp(p 0) Y is Y, at dims 1-4, overflowing margins included
    case = iq.get_case(cid)
    overflowed = 0
    for dim in (1, 2, 3, 4):
        params = case.sampler(np.random.default_rng(dim))
        la, lb, y = iq._unpack(_fuzz_points(dim, seed=dim), dim)
        got = iq._instance_margin(case, Frame(np.exp(la), np.exp(lb), y),
                                  params)
        frame = Frame(np.exp(la), np.exp(lb), y)
        frame.log_geo = np.zeros_like(frame.d)
        margins, _ = iq._margins(case, frame, params)
        want = margins.min(axis=-1).min(axis=0)
        assert got.shape == want.shape == (len(y),)
        assert np.array_equal(got, want, equal_nan=True), dim
        assert np.isfinite(want[2:]).all()
        overflowed += np.count_nonzero(~np.isfinite(want[:2]))
    # the rational kernels of prop2.1 are bounded, so their grids times
    # a Y near 1e300 stay finite
    assert overflowed or cid.startswith("prop2.1")


def test_fuzz_budget_not_a_multiple_of_the_sweep(monkeypatch):
    # dim 2: 83 restarts, then sweeps of 24 moves and a last one of 23
    sizes = hook_stacks(monkeypatch)
    f = iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5}, 250,
                np.random.default_rng(5), dim=2)
    assert f.evaluations == 250
    assert sizes == [83] + [24] * 6 + [23]


def test_fuzz_ranking_calls_are_pinned(monkeypatch):
    # the fuzz workload cuts each probe's time at these calls: at dim 8,
    # budget 907 is 302 restarts in blocks of 256 and 46, two full
    # sweeps of 288 moves in blocks of 256 and 32, and a last one of 29
    sizes = hook_stacks(monkeypatch)
    f = iq.fuzz(iq.get_case("eq1.3"), {}, 907, np.random.default_rng(8),
                dim=8)
    assert f.evaluations == 907
    assert sizes == [256, 46, 256, 32, 256, 32, 29]
    assert max(sizes) <= linalg.CELL_BLOCK


def test_fuzz_sweep_memory_is_linear_in_its_moves():
    # dim 30 has 2 (60 + 1800) = 3720 moves over 1860 coordinates: a
    # table of every move would take 55 MB, and even one whole sweep is
    # never held, only a block of at most CELL_BLOCK moves (3.8 MB);
    # budget 12 scores 4 restarts and one sweep of 8 moves
    args = (iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5}, 12)
    iq.fuzz(*args, np.random.default_rng(0), dim=30)
    tracemalloc.start()
    try:
        f = iq.fuzz(*args, np.random.default_rng(0), dim=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.evaluations == 12
    assert peak <= 5e6


def test_fuzz_restart_memory_is_one_block():
    # eq1.2 at dim 6: 10000 restarts of 84 reals each, drawn and scored
    # 256 at a time; holding them all would take 6.7 MB before a score
    args = (iq.get_case("eq1.2"), {}, 30000)
    iq.fuzz(*args, np.random.default_rng(4), dim=6)
    tracemalloc.start()
    try:
        f = iq.fuzz(*args, np.random.default_rng(4), dim=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.evaluations == 30000
    assert peak <= 3e6


def test_fuzz_sweep_memory_is_one_block():
    # eq1.2 at dim 20: 841 restarts in 4 blocks, then one full sweep of
    # 2 (40 + 800) = 1680 moves of 840 reals each and 2 more moves; the
    # sweep is made and scored 256 moves (1.7 MB) at a time, and the
    # best move is kept as a copy, so no block outlives its turn, where
    # the whole sweep held at once would take 11 MB
    args = (iq.get_case("eq1.2"), {"nu": 0.3, "alpha": 0.5}, 2523)
    iq.fuzz(*args, np.random.default_rng(0), dim=20)
    tracemalloc.start()
    try:
        f = iq.fuzz(*args, np.random.default_rng(0), dim=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.evaluations == 2523
    assert peak <= 15e6


@pytest.mark.parametrize("rigged, accepted", [
    # restart 3 (first block) ties with restart 260 (second block)
    ({3: -1.0, 260: -1.0}, 3),
    # restart 260 is below the first block's best
    ({3: -0.5, 260: -1.0}, 260),
], ids=["tie-across-blocks", "best-in-second-block"])
def test_restarts_across_blocks_start_from_the_first_global_best(
        monkeypatch, rigged, accepted):
    # dim 1, budget 900: 300 restarts, drawn and scored as blocks of 256
    # and 44; the rigged restarts get the given raw margins, every other
    # restart 1; the first sweep moves around the accepted restart, no
    # move ranks below it, so the step halves in 19 sweeps of 8 moves to
    # below 1e-6, and the witness is written from it
    assert linalg.CELL_BLOCK == 256

    def rig(call, raw, frame):
        if call < 2:  # the restart blocks
            raw[:] = 1.0
            for restart, r in rigged.items():
                if 0 <= restart - 256 * call < len(raw):
                    raw[restart - 256 * call] = r

    sizes = hook_stacks(monkeypatch, rig)
    found = hook_lowest(monkeypatch)
    f = iq.fuzz(iq.get_case("eq1.3"), {}, 900, np.random.default_rng(3),
                dim=1)
    assert sizes == [256, 44] + [8] * 19
    assert f.evaluations == 300 + 8 * 19
    z = found[0][0][accepted]
    moves = found[1][0]
    x_scale = max(1.0, np.max(np.abs(iq._unpack(z, 1)[2])))
    assert np.array_equal(moves, _sweep(z, 1, 0.5, x_scale))
    assert lands_at(f.instance, z)


@pytest.mark.parametrize("rigged, accepted", [
    # move 3 (first block) ties with moves 270 and 280 (second block)
    ({3: -1.0, 270: -1.0, 280: -1.0}, 3),
    # moves 270 and 280 tie below the first block's best
    ({3: -0.5, 270: -1.0, 280: -1.0}, 270),
], ids=["tie-across-blocks", "best-in-second-block"])
def test_sweep_across_blocks_accepts_the_first_global_best(
        monkeypatch, rigged, accepted):
    # dim 8: a sweep has 2 (16 + 128) = 288 moves, scored as blocks of 256
    # and 32; the rigged moves get the given raw margins, every other
    # move 1; the sweep takes the accepted move's point, and the witness
    # is written from it
    assert linalg.CELL_BLOCK == 256

    def rig(call, raw, frame):
        if call:  # the blocks of the sweep
            lo = 256 * (call - 1)
            raw[:] = 1.0
            for move, r in rigged.items():
                if lo <= move < lo + len(raw):
                    raw[move - lo] = r

    sizes = hook_stacks(monkeypatch, rig)
    found = hook_lowest(monkeypatch)
    # budget 432: 144 restarts in one stack, then exactly one sweep
    f = iq.fuzz(iq.get_case("eq1.3"), {}, 432, np.random.default_rng(3),
                dim=8)
    assert sizes == [144, 256, 32]
    assert f.evaluations == 432
    _, (moves, (rank, z)) = found
    assert rank == rigged[accepted]
    assert z.tobytes() == moves[accepted].tobytes()
    assert lands_at(f.instance, z)


# The fuzz workload's probes: out-of-range parameters for which a
# violation exists, and in-range controls for which none may be found.
VIOLATING = [("eq1.2", {"nu": 0.1, "alpha": 0.5}),
             ("eq1.4-chain", {"alpha": 0.2}),
             ("eq2.9", {"nu": 0.05, "alpha": 0.5})]
CONTROLS = [("eq1.2", {"nu": 0.3, "alpha": 0.5}),
            ("eq1.4-chain", {"alpha": 0.5}),
            ("eq2.9", {"nu": 0.3, "alpha": 0.5})]


def _probe_id(probe):
    cid, overrides = probe
    return "-".join([cid, *(f"{k}={v}" for k, v in overrides.items())])


@pytest.mark.parametrize("cid, overrides", VIOLATING,
                         ids=map(_probe_id, VIOLATING))
def test_descent_lowers_the_best_restart(monkeypatch, cid, overrides):
    # the restarts alone find these violations, so a descent that never
    # moved would pass every sharpness check: the final raw margin must
    # be strictly below the best restart's (budget 300: one restart stack)
    restart_best = []

    def keep(call, raw, normalized):
        if call == 0:
            restart_best.append(np.min(iq._rank(raw)))

    hook_stacks(monkeypatch, keep)
    for dim in (1, 2, 3, 4):
        for seed in (0, 1):
            f = iq.fuzz(iq.get_case(cid), dict(overrides), 300,
                        np.random.default_rng(seed), dim=dim)
            assert f.margin < restart_best[-1], (dim, seed)


@pytest.mark.parametrize("cid, overrides", VIOLATING + CONTROLS,
                         ids=map(_probe_id, VIOLATING + CONTROLS))
def test_fuzz_witness_replays_bit_for_bit(cid, overrides):
    # evaluate on the finding's witness gives back its margins exactly
    case = iq.get_case(cid)
    for dim in (1, 2, 3, 4):
        for seed in (0, 1):
            f = iq.fuzz(case, dict(overrides), 300,
                        np.random.default_rng(seed), dim=dim)
            replay = iq.evaluate(case, f.instance, f.params, override=True)
            _, normalized = iq._margins(
                case, Frame.of(f.instance.a, f.instance.x, f.instance.b),
                f.params)
            raw = min(float(np.min(m)) for m in replay)
            normalized = float(np.min(normalized))
            assert (raw.hex(), normalized.hex()) == (
                f.margin.hex(), f.normalized_margin.hex()), (dim, seed)


@pytest.mark.parametrize("cid, overrides, expect",
                         [(*p, True) for p in VIOLATING]
                         + [(*p, False) for p in CONTROLS],
                         ids=map(_probe_id, VIOLATING + CONTROLS))
def test_fuzz_probes_at_a_small_budget(cid, overrides, expect):
    # budget 150, dims 1-4, five seeds: every violating probe finds its
    # violation and no control reports one
    for dim in (1, 2, 3, 4):
        for seed in range(5):
            f = iq.fuzz(iq.get_case(cid), dict(overrides), 150,
                        np.random.default_rng(seed), dim=dim)
            assert f.violation == expect, (dim, seed)


def test_fuzz_in_range_finds_nothing():
    rng = np.random.default_rng(1)
    finding = iq.fuzz(iq.get_case("eq1.3"), {}, 400, rng, dim=2)
    assert not finding.violation


def test_fuzz_equal_operands_never_negative():
    # with A = B every mean is a convex recombination of the same terms
    rng = np.random.default_rng(2)
    case = iq.get_case("eq1.2")
    for _ in range(50):
        a = random_hpd(3, rng)
        x = random_complex(3, rng)
        inst = iq.InstanceTriple(a, a, x)
        params = case.sampler(rng)
        margins = iq.evaluate(case, inst, params)
        assert min(float(np.min(m)) for m in margins) >= -1e-9


def test_cases_are_homogeneous_of_their_degree():
    # every term of a case is (ab)^(p/2) g(d), p its "p" parameter or 1,
    # so scaling A and B by c scales every raw margin by c^p
    c = 2.7
    for ci, cid in enumerate(iq.CASE_IDS):
        case = iq.get_case(cid)
        for dim, sample in [(1, 0), (2, 1), (3, 2)]:
            inst, rng = iq.make_instance(11, ci, dim, sample)
            params = case.sampler(rng)
            scaled = iq.InstanceTriple(
                *(HpdMatrix.from_spectrum(c * m.eigenvalues, m.eigenvectors)
                  for m in (inst.a, inst.b)), inst.x)
            factor = c ** params.get("p", 1.0)
            for got, base in zip(iq.evaluate(case, scaled, params),
                                 iq.evaluate(case, inst, params)):
                assert np.max(np.abs(got - factor * base)) <= 1e-11 * (
                    factor * np.max(np.abs(base))), (cid, dim)


def _related_frames(inst, rng) -> dict:
    """The frames of inst under each relation that leaves every margin
    unchanged, with unitaries and permutations drawn from rng: unitary
    covariance (UAU*, VBV*, UXV*); a permutation of A's eigenvalues with
    Xt's rows, and of B's with its columns; and the swap (B, A, X*),
    which maps each grid g(d) to g(-d) transposed on Xt*, every registry
    kernel being even or odd in d."""
    u, v = (linalg.random_unitary(inst.dim, rng) for _ in range(2))
    pa, pb = rng.permutation(inst.dim), rng.permutation(inst.dim)
    a, b = inst.a.eigenvalues, inst.b.eigenvalues
    xt = Frame.of(inst.a, inst.x, inst.b).xt

    def rotated(m, w):
        m = w @ m.matrix @ linalg.adjoint(w)
        return HpdMatrix.from_matrix(0.5 * (m + linalg.adjoint(m)))

    return {"unitary": Frame.of(rotated(inst.a, u),
                                u @ inst.x @ linalg.adjoint(v),
                                rotated(inst.b, v)),
            "permute-a": Frame(a[pa], b, xt[pa]),
            "permute-b": Frame(a, b[pb], xt[:, pb]),
            "swap": Frame.of(inst.b, linalg.adjoint(inst.x), inst.a)}


@pytest.mark.parametrize("cid", iq.CASE_IDS)
@settings(derandomize=True, max_examples=5, deadline=None)
@given(sample=st.integers(0, 10 ** 6))
def test_margins_are_invariant_under_frame_relations(cid, sample):
    # every margin, at dims 1-4, to within 1e-12 of its comparison's
    # scale (the largest change seen is 3.3e-14, eq2.13's unitary one)
    case = iq.get_case(cid)
    for dim in (1, 2, 3, 4):
        inst, rng = iq.make_instance(13, iq.CASE_IDS.index(cid), dim, sample)
        params = case.sampler(rng)
        frame = Frame.of(inst.a, inst.x, inst.b)
        margins, _ = iq._margins(case, frame, params)
        _, scales = iq.step_margins(*case.builder(frame.d, params),
                                    frame.scaled(params.get("p", 1.0)))
        for name, related in _related_frames(inst, rng).items():
            change = np.abs(iq._margins(case, related, params)[0] - margins)
            assert np.all(change.max(axis=-1) <= 1e-12 * scales), (name, dim)


def _grid_frame(seed, count):
    """d of ``count`` dim-4 instances in the default condition range: a
    single frame's (4, 4) for count None, else a (count, 4, 4) stack."""
    rng = np.random.default_rng(seed)
    logs = np.log(iq.DEFAULT_CONDITION_RANGE)
    shape = (4,) if count is None else (count, 4)
    la, lb = rng.uniform(*logs, (2, *shape))
    return Frame(np.exp(la), np.exp(lb), None).d


def test_f_nu_builder_lists_each_right_step_as_its_mirror():
    d = _grid_frame(0, 3)
    grids, (mono, convex) = iq._build_f_nu_shape(d, {"p": 1.3})
    n = iq.F_NU_GRID_POINTS
    center = n // 2
    assert len(grids) == center + 1
    ((one, lo),), ((one_r, hi),) = mono.lhs, mono.rhs
    ((two, mid),), ((one_a, below), (one_b, above)) = convex.lhs, convex.rhs
    assert (one, one_r, two, one_a, one_b) == (1.0, 1.0, 2.0, 1.0, 1.0)
    assert {len(i) for i in (lo, hi)} == {n - 1}
    assert {len(i) for i in (mid, below, above)} == {n - 2}
    for i in range(center):
        # left of p/2, node i + 1 below node i; monotone comparison
        # 39 - i reads the grids of comparison i
        assert (lo[i], hi[i]) == (i + 1, i)
        assert (lo[n - 2 - i], hi[n - 2 - i]) == (i + 1, i)
    for i in range(1, center + 1):
        # convexity on nodes i - 1, i, i + 1, node 21 being node 19;
        # comparison 40 - i (list index 39 - i) reads comparison i's
        # grids in its order, and the centre triple is its own mirror
        want = (i, i - 1, i + 1 if i < center else center - 1)
        assert (mid[i - 1], below[i - 1], above[i - 1]) == want
        assert (mid[n - 2 - i], below[n - 2 - i], above[n - 2 - i]) == want


@pytest.mark.parametrize("per_sample", [False, True])
@pytest.mark.parametrize("count", [None, 5])
def test_f_nu_grids_are_per_nu_kernels(per_sample, count):
    # grid i carries the bits of one p_sum_kernel call at node i <= p/2;
    # node 40 - i reads grid i, f's value at p - nu_i, whose argument
    # (2 nu - p) d is rounded from a node that differs from the linspace
    # node in its last bits, an error cosh carries times |d|
    d = _grid_frame(1, count)
    pw = (np.random.default_rng(2).uniform(0.5, 2.0, (5, 1, 1))
          if per_sample else 1.3)
    grid = np.linspace(pw / 2.0 - 1.0, pw / 2.0 + 1.0, iq.F_NU_GRID_POINTS)
    grids, _ = iq._build_f_nu_shape(d, {"p": pw})
    center = iq.F_NU_GRID_POINTS // 2
    assert len(grids) == center + 1
    for i in range(center + 1):
        assert np.array_equal(grids[i], p_sum_kernel(d, grid[i], pw)), i
    assert iq.F_NU_NODE[center] == center
    bound = 4 * np.finfo(float).eps * (1.0 + np.abs(d))
    for i in range(center):
        want = p_sum_kernel(d, pw - grid[i], pw)
        assert iq.F_NU_NODE[-1 - i] == iq.F_NU_NODE[i] == i
        assert np.all(np.abs(grids[i] - want) <= bound * want), i
        assert np.all(np.abs(grids[i] - p_sum_kernel(d, grid[-1 - i], pw))
                      <= bound * want), i


# The eq2.2/eq2.3/eq2.7 interpolants and the eq2.10-eq2.13 p-family
# written out case by case, each with its own constants: the reference
# for the ranges, draws, grids, weights and index arrays that the family
# helpers make.
def _old_interpolant(nu0):
    def build(d, p):
        mix = ((1.0 - p["beta"]) * heinz_kernel(d, nu0)
               + p["beta"] * heinz_kernel(d, 0.25))
        return (np.array([heinz_kernel(d, p["nu"]), mix,
                          heron_kernel(d, p["alpha"])]),
                [iq.Step([(1.0, np.arange(2))], [(1.0, np.arange(1, 3))])])
    return build


def _old_eq210(d, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    lhs = p_sum_kernel(d, r, pw)
    rhs = p_sum_kernel(d, pw, pw) + t * p_sum_kernel(d, nu, pw)
    return np.array([lhs, rhs]), [iq.Step([(1.0 + t, [0])], [(1.0, [1])])]


def _old_eq211(d, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    lhs = p_diff_kernel(d, r, pw)
    rhs = p_diff_kernel(d, pw, pw) + t * p_diff_kernel(d, pw - nu, pw)
    return (np.array([lhs, rhs]),
            [iq.Step([(1.0 + t, [0])], [(abs(pw - 2.0 * r), [1])])])


def _old_eq212(d, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    big = p_sum_kernel(d, r, pw)
    small = p_sum_kernel(d, pw, pw) + t * p_sum_kernel(d, nu, pw)
    return np.array([small, big]), [iq.Step([(1.0, [0])], [(1.0 + t, [1])])]


def _old_eq213(d, p):
    pw, nu, r, t = p["p"], p["nu"], p["r"], p["t"]
    big = p_diff_kernel(d, r, pw)
    small = p_diff_kernel(d, pw, pw) + t * p_diff_kernel(d, nu, pw)
    factor = np.divide((1.0 + t) * pw - 2.0 * t * nu, pw - 2.0 * r)
    return np.array([small, big]), [iq.Step([(1.0, [0])], [(factor, [1])])]


def _old_sample_eq210(rng):
    pw = uniform(rng, 0.05, 2.0)
    nu = uniform(rng, 0.0, pw)
    r = uniform(rng, nu / 2.0, pw / 2.0)
    return {"p": pw, "nu": nu, "r": r, "t": uniform(rng, -1.0, 1.0)}


def _old_sample_eq211(rng):
    pw = uniform(rng, 1.0, 3.0)
    nu = uniform(rng, 0.0, min(pw / 2.0, pw - 1.0))
    r = uniform(rng, nu / 2.0, pw / 2.0)
    return {"p": pw, "nu": nu, "r": r, "t": uniform(rng, -1.0, 1.0)}


def _interpolant_ranges(lo, hi):
    return {"nu": (lo, hi), "alpha": (0.5, np.inf), "beta": (0.5, 1.0)}


# case id -> (ranges, description, builder, sampler) as each case had them
OLD_FAMILIES = {
    "eq2.2": (_interpolant_ranges(3 / 8, 5 / 8),
              "interpolant (1-b) geometric + b H_{1/4}",
              _old_interpolant(0.5), None),
    "eq2.3": (_interpolant_ranges(5 / 16, 11 / 16),
              "interpolant (1-b) H_{3/8} + b H_{1/4}",
              _old_interpolant(3 / 8), None),
    "eq2.7": (_interpolant_ranges(9 / 32, 23 / 32),
              "interpolant (1-b) H_{5/16} + b H_{1/4}",
              _old_interpolant(5 / 16), None),
    "eq2.10": ({"t": (-1.0, 1.0)},
               "(1+t) p-Heinz sum vs endpoint sum plus t perturbation",
               _old_eq210, _old_sample_eq210),
    "eq2.11": ({"t": (-1.0, 1.0)},
               "p-Heinz difference vs |p-2r| scaled endpoint difference",
               _old_eq211, _old_sample_eq211),
    "eq2.12": ({"t": (0.0, np.inf)}, "reversed sum inequality for r <= 0 <= p",
               _old_eq212, iq._sample_eq212),
    "eq2.13": ({"t": (0.0, np.inf)},
               "reversed difference inequality with the (p, nu, r) factor",
               _old_eq213, iq._sample_eq212),
}


@pytest.mark.parametrize("cid", OLD_FAMILIES)
def test_family_ranges_and_draws_unchanged(cid):
    ranges, description, _, sampler = OLD_FAMILIES[cid]
    case = iq.get_case(cid)
    assert list(case.ranges.items()) == list(ranges.items())
    assert case.description == description
    if sampler is None:
        sampler = partial(iq._sample_ranges, ranges)
    for seed in range(40):
        got = case.sampler(np.random.default_rng(seed))
        want = sampler(np.random.default_rng(seed))
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [
            v.hex() for v in want.values()], seed


def _assert_same_build(got, want):
    (grids, steps), (want_grids, want_steps) = got, want
    assert grids.shape == want_grids.shape
    assert np.array_equal(grids, want_grids)
    assert len(steps) == len(want_steps)
    for step, want_step in zip(steps, want_steps):
        for side, want_side in ((step.lhs, want_step.lhs),
                                (step.rhs, want_step.rhs)):
            assert len(side) == len(want_side)
            for (c, i), (want_c, want_i) in zip(side, want_side):
                assert np.array_equal(c, want_c)
                # the grids each index selects: a slice equals the index
                # array it stands for
                assert np.array_equal(np.arange(len(grids))[i],
                                      np.arange(len(want_grids))[want_i])


@pytest.mark.parametrize("cid", OLD_FAMILIES)
@pytest.mark.parametrize("per_sample", [False, True])
@pytest.mark.parametrize("count", [None, 5])
def test_family_builders_unchanged(cid, per_sample, count):
    # scalar parameters or (5, 1, 1) ones, as a cell stacks them, on a
    # single frame's d or a stack of five, with d = 0 at one entry and
    # |d| large at another
    build = OLD_FAMILIES[cid][2]
    case = iq.get_case(cid)
    d = _grid_frame(3, count)
    d[..., 0, 0] = 0.0
    d[..., 1, 0] = -6.5
    rng = np.random.default_rng(4)
    for _ in range(5):
        draws = [case.sampler(rng) for _ in range(5)]
        params = ({k: np.array([p[k] for p in draws])[:, None, None]
                   for k in draws[0]} if per_sample else draws[0])
        _assert_same_build(case.builder(d, params), build(d, params))


def _svd_spy(monkeypatch) -> list:
    """The number of matrices in each stack step_margins sends to the
    SVD, appended as it sends them."""
    calls, svd_values = [], iq.svd_values

    def spy(m):
        calls.append(len(m))
        return svd_values(m)
    monkeypatch.setattr(iq, "svd_values", spy)
    return calls


def test_step_margins_send_a_shared_grid_once_and_repeat_bits(monkeypatch):
    class Weight(float):
        # counts the times a coefficient weighs a gather
        uses = 0

        def __mul__(self, other):
            Weight.uses += 1
            return float(self) * other

    rng = np.random.default_rng(4)
    grids = rng.standard_normal((3, 3, 3))
    # grid 0 in four comparisons; comparison 2 repeats 0, and 4 repeats 3
    s1 = iq.Step([(Weight(1.0), [0, 2, 0])],
                 [(Weight(1.0), [1, 0, 1]), (Weight(0.5), [2, 1, 2])])
    s2 = iq.Step([(Weight(2.0), [2, 2])], [(Weight(1.0), [0, 0])])
    calls = _svd_spy(monkeypatch)
    margins, scales = iq.step_margins(grids, [s1, s2])
    # one weighing per term position, whatever the comparisons
    assert Weight.uses == 5
    once, once_scales = iq.step_margins(grids, [
        iq.Step([(1.0, [0, 2])], [(1.0, [1, 0]), (0.5, [2, 1])]),
        iq.Step([(2.0, [2])], [(1.0, [0])])])
    assert calls == [3, 3]
    assert margins.shape == (5, 3) and scales.shape == (5,)
    for k, j in enumerate([0, 1, 0, 2, 2]):
        assert np.array_equal(margins[k], once[j])
        assert np.array_equal(scales[k], once_scales[j])


def test_step_margins_scale_by_the_right_sides_size():
    # a negative right weight (eq1.1's 2/(2 + t) at t < -2) makes the
    # right side's weighted trace norm negative; the scale stays >= 1,
    # so that a negative margin stays negative over it
    grids = np.random.default_rng(3).standard_normal((2, 3, 3))
    margins, scales = iq.step_margins(grids, [
        iq.Step([(1.0, [0])], [(-2.0, [1])])])
    trace = np.linalg.svd(grids, compute_uv=False).sum(-1)
    assert scales[0] == pytest.approx(1.0 + 2.0 * trace[1], rel=1e-14)
    assert margins[0, -1] == pytest.approx(-2.0 * trace[1] - trace[0],
                                           rel=1e-14)
    assert (margins[0] / scales[0] < 0).all()


@pytest.mark.parametrize("per_sample", [False, True])
def test_step_margins_match_a_loop_over_comparisons(per_sample):
    # bit for bit against each comparison scored on its own, one SVD per
    # matrix; a NaN grid makes exactly its own comparisons NaN
    rng = np.random.default_rng(5)
    k, n = 4, 3
    grids = rng.standard_normal((5, k, n, n))
    grids[3, 1, 0, 2] = np.nan
    xt = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    w = rng.uniform(0.5, 2.0, (k, 1, 1)) if per_sample else 0.7
    steps = [iq.Step([(1.0, [0, 1, 2, 0])],
                     [(1.0, [1, 2, 4, 1]), (w, [2, 0, 0, 2])]),
             iq.Step([(w, [3, 4])], [(2.0, [4, 3])])]
    margins, scales = iq.step_margins(grids, steps, xt)
    assert margins.shape == (6, k, n) and scales.shape == (6, k)

    def fan(m):
        if not np.isfinite(m).all():
            return np.full(n, np.nan)
        return np.cumsum(np.linalg.svd(m, compute_uv=False))

    for s in range(k):
        row = 0
        for step in steps:
            for q in range(len(step.rhs[0][1])):
                total = 0
                for c, i in step.rhs:
                    c = c[s, 0, 0] if np.ndim(c) else c
                    total = total + c * fan(grids[i[q], s] * xt[s])
                scale = 1.0 + total[-1]
                for c, i in step.lhs:
                    c = c[s, 0, 0] if np.ndim(c) else c
                    total = total - c * fan(grids[i[q], s] * xt[s])
                assert np.array_equal(margins[row, s], total,
                                      equal_nan=True), (s, row)
                assert np.array_equal(scales[row, s], scale,
                                      equal_nan=True), (s, row)
                row += 1
    nan = np.isnan(margins).any(axis=-1)
    assert np.array_equal(np.argwhere(nan), [[4, 1], [5, 1]])
    assert not np.isnan(margins[~nan]).any()


def _one_svd_of(monkeypatch, cid, count, comparisons):
    """A 4-sample dim-3 block of the case sends ``count`` grids to one
    SVD and scores ``comparisons`` comparisons."""
    calls = _svd_spy(monkeypatch)
    samples, frame, params = iq._draw_pass(
        20240801, 3, [(cid, range(4))], iq.DEFAULT_CONDITION_RANGE)[0]
    case = iq.get_case(cid)
    params = {k: np.array([p[k] for p in params])[:, None, None]
              for k in params[0]}
    margins, normalized = iq._margins(case, frame, params)
    assert calls == [count]
    assert margins.shape == (comparisons, 4, 3)
    assert normalized.shape == (comparisons, 4)


def test_f_nu_sends_each_distinct_grid_to_the_svd_once(monkeypatch):
    _one_svd_of(monkeypatch, "f-nu-shape", iq.F_NU_GRID_POINTS // 2 + 1,
                2 * iq.F_NU_GRID_POINTS - 3)


def test_alpha_mono_sends_each_heron_grid_to_the_svd_once(monkeypatch):
    alphas = len(iq.ALPHA_MONO_GRID) + len(iq.ALPHA_SMALL_GRID)
    _one_svd_of(monkeypatch, "eq1.4-alpha-mono", alphas, alphas - 1)


@pytest.mark.parametrize("count", [None, 5])
def test_alpha_mono_herons_are_heron_kernels(count):
    d = _grid_frame(3, count)
    grids, (mono, small) = iq._build_alpha_mono(d, {})
    alphas = iq.ALPHA_MONO_GRID + iq.ALPHA_SMALL_GRID
    assert len(grids) == len(alphas)
    for alpha, grid in zip(alphas, grids):
        assert np.array_equal(grid, heron_kernel(d, alpha)), alpha
    # grid i below grid i + 1 on the monotone run, and each small alpha's
    # grid below alpha 1/2's, grid 0
    m, k = len(iq.ALPHA_MONO_GRID), len(iq.ALPHA_SMALL_GRID)
    assert [(c, list(i)) for c, i in mono.lhs] == [(1.0, list(range(m - 1)))]
    assert [(c, list(i)) for c, i in mono.rhs] == [(1.0, list(range(1, m)))]
    assert [(c, list(i)) for c, i in small.lhs] == [
        (1.0, list(range(m, m + k)))]
    assert [(c, list(i)) for c, i in small.rhs] == [(1.0, [0] * k)]


@pytest.mark.parametrize("cid", iq.CASE_IDS)
def test_every_term_carries_a_coefficient(cid):
    # a number or an array on every term of every step, for scalar
    # parameters on one frame's d and (5, 1, 1) ones on a stack of five,
    # at dims 1-4: step_margins multiplies every gather by its weight
    case = iq.get_case(cid)
    for dim in (1, 2, 3, 4):
        rng = np.random.default_rng(dim)
        la, lb = rng.uniform(*np.log(iq.DEFAULT_CONDITION_RANGE), (2, 5, dim))
        d = 0.5 * (la[:, :, None] - lb[:, None, :])
        draws = [case.sampler(rng) for _ in range(5)]
        stacked = {k: np.array([p[k] for p in draws])[:, None, None]
                   for k in draws[0]}
        for grid, params in ((d[0], draws[0]), (d, stacked)):
            for step in case.builder(grid, params)[1]:
                for c, _ in step.lhs + step.rhs:
                    assert isinstance(c, (numbers.Real, np.ndarray)), dim
                    assert not isinstance(c, bool), dim


if __name__ == "__main__":
    # FUZZ_GOLDEN as this setup finds it, in the form written above, each
    # entry's violation flag as a trailing comment
    print("FUZZ_GOLDEN = [")
    for config, _ in FUZZ_GOLDEN:
        cid, overrides, *ints = config
        (raw, normalized, evals, digest), f = golden_of(config)
        print(f"    (({json.dumps(cid)}, {json.dumps(overrides)}, "
              f"{', '.join(map(str, ints))}),")
        print(f'     ("{raw}", "{normalized}", {evals},')
        print(f'      "{digest}")),  # violation: {f.violation}')
    print("]")
    print()
    print("REPORT_GOLDEN = [")
    for seed in (20240801, 7, 90210):
        print(f"    ({seed}, {{")
        for cid, (low, steps) in report_golden_of(seed).items():
            print(f'        "{cid}": ("{low}", "{steps}"),')
        print("    }),")
    print("]")
