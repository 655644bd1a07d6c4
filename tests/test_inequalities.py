import concurrent.futures
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from meanforge import inequalities as iq
from meanforge.errors import RangeViolationError, UnknownCaseError
from meanforge.linalg import (Frame, HpdMatrix, log_range, random_complex,
                              random_hpd, random_spectra)
from meanforge.means import heron_kernel, p_sum_kernel

from draw_oracle import sample_draws, sample_frame
from scalar_oracle import oracle_margins

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
    ("prop2.1-1", {"s1": 0.1, "s2": 0.9, "r": 5.0, "t": 0.5}),
    ("prop2.1-2", {"s1": 0.9, "s2": 0.1, "r": 0.2, "rp": 0.2,
                   "alpha": 0.5, "beta": 0.2}),
], ids=["eq2.10-r<nu/2", "eq2.10-r>p/2", "eq2.10-nu<0", "eq2.10-nu>p",
        "prop2.1-1-s2>s1", "prop2.1-2-beta<1/2"])
def test_coupled_hypotheses_raise_without_override(cid, params):
    # the ranges' t alone would let these through: r < nu/2, r > p/2,
    # nu outside [0, p], and kernel parameters off kernel_in_hypothesis
    inst = iq.make_instance(1, 0, 2, 0)[0]
    case = iq.get_case(cid)
    assert not case.in_range(params)
    with pytest.raises(RangeViolationError):
        iq.evaluate(case, inst, params)
    assert len(iq.evaluate(case, inst, params, override=True)) == 1


@pytest.mark.parametrize("cid, params", [
    ("eq2.10", {"p": 1.0, "nu": 1.0, "r": 0.5, "t": -1.0}),
    ("eq2.10", {"p": 1.0, "nu": 0.0, "r": 0.0, "t": 1.0}),
    ("prop2.1-1", {"s1": 0.9, "s2": 0.1, "r": -0.5, "t": 1.0}),
], ids=["eq2.10-nu=p", "eq2.10-nu=0", "prop2.1-1-r=-mid"])
def test_coupled_hypotheses_keep_their_boundary(cid, params):
    inst = iq.make_instance(1, 0, 2, 0)[0]
    assert len(iq.evaluate(iq.get_case(cid), inst, params)) == 1


@pytest.mark.parametrize("cid", sorted(EXPECTED_IDS))
def test_sampler_stays_in_ranges(cid):
    case = iq.get_case(cid)
    for seed in range(200):
        params = case.sampler(np.random.default_rng(seed))
        assert case.in_range(params), (seed, params)


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
    ("eq2.13", {"p": 0.5, "nu": 0.1, "r": 0.25, "t": 1.0}),
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
    monkeypatch.setattr(iq, "CELL_BLOCK", 3)
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
    monkeypatch.setattr(iq, "CELL_BLOCK", block)
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
    monkeypatch.setattr(iq, "CELL_BLOCK", block)
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
    lambda rng: random_spectra(0, rng),
    lambda rng: random_spectra(2, rng, count=0),
    lambda rng: iq.make_instance(1, 99, 2, 0),
    lambda rng: iq.make_instance(1, 0, 0, 0),
    lambda rng: log_range((1.0, np.inf)),
    lambda rng: iq.run_suite([2], 2, seed=1, case_ids=["eq1.2"],
                             condition_range=(1.0, np.inf)),
    lambda rng: iq.run_suite([2], 2, seed=1, case_ids=["eq1.2"],
                             condition_range=(0.0, 1.0)),
    lambda rng: iq.run_suite([2], 2, seed=-1, case_ids=["eq1.2"]),
], ids=["hpd-dim-0", "complex-count-0", "spectra-dim-0", "spectra-count-0",
        "instance-no-case", "instance-dim-0", "log-range-inf",
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
        margins, scales = iq._margins(iq.get_case(case.id),
                                      Frame.of(inst.a, inst.x, inst.b), params)
        replayed = min(float(np.min(m)) / s for m, s in zip(margins, scales))
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
    margins = iq.step_margins

    def fail_at_dim_2(grids, steps, xt=1.0):
        if np.shape(xt)[-1] == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return margins(grids, steps, xt)

    monkeypatch.setattr(iq, "step_margins", fail_at_dim_2)
    report = iq.run_suite([1, 2], 4, seed=3, case_ids=["eq1.3", "eq1.2"])
    # every (step, sample) margin of the dim-2 cells fails; dim 1 is checked
    assert [c.numerical_failures for c in report.cases] == [2 * 4, 1 * 4]
    assert all(np.isfinite(c.min_margin) for c in report.cases)


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
], ids=["budget-0", "dim-0", "nan-tolerance", "negative-tolerance"])
def test_fuzz_rejects_degenerate_input(kwargs):
    run = {"budget": 30, "dim": 1, **kwargs}
    with pytest.raises(ValueError):
        iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5},
                rng=np.random.default_rng(0), **run)


def test_fuzz_out_of_range_finds_violation():
    rng = np.random.default_rng(0)
    finding = iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5},
                      1000, rng, dim=1)
    assert finding.evaluations <= 1000
    assert finding.margin <= -2.0
    assert finding.violation


def hook_stacks(monkeypatch, rig=None) -> list:
    """Wrap inequalities._instance_margin: the size of each frame stack it
    scores goes to the returned list, and rig(call, raw, normalized) may
    change the stack's margins in place.  A single frame, the witness's
    re-score, passes through."""
    sizes, margin = [], iq._instance_margin

    def hooked(case, frame, params):
        raw, normalized = margin(case, frame, params)
        if np.ndim(frame.xt) == 3:
            sizes.append(len(raw))
            if rig is not None:
                rig(len(sizes) - 1, raw, normalized)
        return raw, normalized

    monkeypatch.setattr(iq, "_instance_margin", hooked)
    return sizes


def hook_lowest(monkeypatch) -> list:
    """Record every (raw, normalized, z, ...) that inequalities._lowest
    returns: the best restart first, then each sweep's best move."""
    found, lowest = [], iq._lowest

    def hooked(*args):
        found.append(lowest(*args))
        return found[-1]

    monkeypatch.setattr(iq, "_lowest", hooked)
    return found


def lands_at(inst, z, ua, ub) -> bool:
    """Whether the witness inst is the frame point z, eigenvectors ua and
    ub, up to the witness's sort of the eigenpairs."""
    la, lb, xt = iq._unpack(z, inst.dim)
    return bool(np.allclose(np.log(inst.a.eigenvalues), np.sort(la)[::-1])
                and np.allclose(np.log(inst.b.eigenvalues), np.sort(lb)[::-1])
                and np.allclose(iq.adjoint(ua) @ inst.x @ ub, xt))


def test_fuzz_nan_restart_never_stays_best(monkeypatch):
    # the first random restart of the stack evaluates to NaN and so does
    # every descent candidate: a finite restart must be the finding.
    # Budget 30 has 10 restarts, one stack and so the first call.
    def first_nan(call, raw, normalized):
        if call:  # a descent sweep
            raw[:] = normalized[:] = np.nan
        else:
            raw[0] = normalized[0] = np.nan

    sizes = hook_stacks(monkeypatch, first_nan)
    found = hook_lowest(monkeypatch)
    finding = iq.fuzz(iq.get_case("eq1.3"), {}, 30, np.random.default_rng(1))
    assert sizes[0] == 10 and len(sizes) > 1
    raw, _, z, ua, ub = found[0]
    assert np.isfinite(raw)
    assert lands_at(finding.instance, z, ua, ub)
    assert np.isfinite(finding.margin)
    assert np.isfinite(finding.normalized_margin)


def test_fuzz_descent_leaves_a_nan_best(monkeypatch):
    # every random restart is NaN; the first finite candidate replaces it
    def nan_restarts(call, raw, normalized):
        if call == 0:  # the one restart stack of budget 30
            raw[:] = normalized[:] = np.nan

    sizes = hook_stacks(monkeypatch, nan_restarts)
    found = hook_lowest(monkeypatch)
    finding = iq.fuzz(iq.get_case("eq1.3"), {}, 30, np.random.default_rng(1))
    assert sizes[0] == 10 and len(sizes) > 1
    raw, _, z, ua, ub = found[0]
    assert np.isnan(raw)
    assert not lands_at(finding.instance, z, ua, ub)
    assert np.isfinite(finding.margin)
    assert np.isfinite(finding.normalized_margin)


# Findings of the eigenframe fuzzer: (case, overrides, dim, budget, seed)
# -> float.hex of the raw and normalized margins, evaluations and the
# first 16 hex digits of the SHA-256 of the witness's eigenvalues,
# eigenvectors and X.  Budget 1000 has 333 restarts, more than one
# CELL_BLOCK.  They were recorded anew when the search moved to the
# joint eigenframe (restarts drawn as block arrays, moves on Xt), after
# the evidence that the new search loses nothing: no missed violation
# on the 12 violating benchmark probes x 20 seeds at budgets 150 and
# 300, and the 12 in-range controls clean.  The bits depend on LAPACK
# QR and SVD rounding: they were recorded with numpy 2.4.6 on
# scipy-openblas 0.3.31 (x86_64, one BLAS thread), so on another BLAS
# build a mismatch here need not mean that the search changed.
# ``PYTHONPATH=src python tests/test_inequalities.py`` prints the list
# as this setup finds it.
FUZZ_GOLDEN = [
    (("eq1.2", {"nu": 0.1, "alpha": 0.5}, 4, 300, 0),
     ("-0x1.76b2a9972a4d0p+7", "-0x1.02249c3e443f2p-4", 300,
      "66da2135012fc0c4")),
    (("eq2.9", {"nu": 0.05, "alpha": 0.5}, 4, 1000, 1),
     ("-0x1.4fd6cbc394a13p+15", "-0x1.d26bc425b8ef5p+1", 1000,
      "cf4c90bc28c3f9ca")),
    (("eq1.4-chain", {"alpha": 0.2}, 2, 1000, 2),
     ("-0x1.1e9d1fbfcc740p+18", "-0x1.efbc73dd5265cp-4", 1000,
      "26e3ecad2e543fef")),
    (("eq1.4-chain", {"alpha": 0.5}, 3, 300, 3),
     ("0x1.3cf216fef2800p-11", "0x1.08682804ae21fp-11", 300,
      "910b801f35978d81")),
    (("eq1.2", {"nu": 0.3, "alpha": 0.5}, 2, 1000, 4),
     ("0x1.9baeedc800000p-28", "0x1.6e4b241103c24p-28", 1000,
      "b8430d31a6398f48")),
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


def test_fuzz_scores_frames_not_matrices(monkeypatch):
    # one evaluator call per stack of restarts or of descent moves, and
    # one on the witness's frame; the witness is the only HpdMatrix built
    sizes, built = [], []
    margin = iq._instance_margin
    spectrum = iq.HpdMatrix.from_spectrum.__func__

    def counted(case, frame, params):
        sizes.append(np.shape(frame.xt)[:-2])
        return margin(case, frame, params)

    def counted_spectrum(cls, *args):
        built.append(None)
        return spectrum(cls, *args)

    monkeypatch.setattr(iq, "_instance_margin", counted)
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


def _restart(dim, seed):
    """The frame point z of one random restart drawn as the fuzzer
    draws."""
    rng = np.random.default_rng(seed)
    ea, ua = random_spectra(dim, rng, iq.FUZZ_CONDITION_RANGE, 1)
    eb, ub = random_spectra(dim, rng, iq.FUZZ_CONDITION_RANGE, 1)
    x = random_complex(dim, rng, 1)
    return iq._pack(ea, eb, iq.adjoint(ua) @ x @ ub)[0]


def test_sweep_moves_follow_the_coordinate_order(monkeypatch):
    # the stacks the fuzzer scores are the restarts, then the loop-built
    # sweeps around each accepted point
    scored = []
    score = iq._score

    def kept(case, params, z, n):
        raws, norms = score(case, params, z, n)
        scored.append((z.copy(), raws))
        return raws, norms

    monkeypatch.setattr(iq, "_score", kept)
    dim = 2
    iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5}, 300,
            np.random.default_rng(7), dim=dim)
    (zs, raws), sweeps = scored[0], scored[1:]
    z, raw = zs[int(np.argmin(raws))], np.min(raws)
    x_scale = max(1.0, np.max(np.abs(iq._unpack(z, dim)[2])))
    step = 0.5
    for cands, cand_raws in sweeps:
        want = _sweep(z, dim, step, x_scale)[:len(cands)]
        assert np.array_equal(cands, want)
        i = int(np.argmin(cand_raws))
        if cand_raws[i] < raw - 1e-15:
            z, raw = cands[i], cand_raws[i]
        else:
            step /= 2
    assert len(sweeps) > 3


@pytest.mark.parametrize("cid, overrides, dim", [
    ("eq1.2", {"nu": 0.1, "alpha": 0.5}, 1),
    ("eq2.9", {"nu": 0.05, "alpha": 0.5}, 3),
    ("f-nu-shape", {}, 4),
])
def test_sweep_stack_scores_as_single_frames(cid, overrides, dim):
    # a sweep scored as one stack gives each frame point the bits it gets
    # on its own single frame
    case = iq.get_case(cid)
    params = {**case.sampler(np.random.default_rng(dim)), **overrides}
    cands = _sweep(_restart(dim, seed=dim), dim, 0.5, 1.5)
    raws, norms = iq._score(case, params, cands, dim)
    for c, r, s in zip(cands, raws, norms):
        la, lb, xt = iq._unpack(c, dim)
        one_raw, one_norm = iq._instance_margin(
            case, Frame(np.exp(la), np.exp(lb), xt), params)
        assert (r.hex(), s.hex()) == (float(one_raw).hex(),
                                       float(one_norm).hex())


def test_fuzz_budget_not_a_multiple_of_the_sweep(monkeypatch):
    # dim 2: 83 restarts, then sweeps of 24 moves and a last one of 23
    sizes = hook_stacks(monkeypatch)
    f = iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5}, 250,
                np.random.default_rng(5), dim=2)
    assert f.evaluations == 250
    assert sizes == [83] + [24] * 6 + [23]


@pytest.mark.parametrize("rigged, accepted", [
    # move 3 (first block) ties with moves 270 and 280 (second block)
    ({3: (-1.0, -0.125), 270: (-1.0, -0.25), 280: (-1.0, -0.5)},
     (-1.0, -0.125)),
    # moves 270 and 280 tie below the first block's best
    ({3: (-0.5, -0.125), 270: (-1.0, -0.25), 280: (-1.0, -0.5)},
     (-1.0, -0.25)),
], ids=["tie-across-blocks", "best-in-second-block"])
def test_sweep_across_blocks_accepts_the_first_global_best(
        monkeypatch, rigged, accepted):
    # dim 8: a sweep has 2 (16 + 128) = 288 moves, scored as blocks of 256
    # and 32; the rigged moves get the given (raw, normalized) margins,
    # every other move 1, and the normalized margin tells which was the
    # sweep's best; the witness is that move's point
    assert iq.CELL_BLOCK == 256

    def rig(call, raw, normalized):
        if call:  # the blocks of the sweep
            lo = 256 * (call - 1)
            raw[:], normalized[:] = 1.0, 1.0
            for move, (r, s) in rigged.items():
                if lo <= move < lo + len(raw):
                    raw[move - lo], normalized[move - lo] = r, s

    sizes = hook_stacks(monkeypatch, rig)
    found = hook_lowest(monkeypatch)
    # budget 432: 144 restarts in one stack, then exactly one sweep
    f = iq.fuzz(iq.get_case("eq1.3"), {}, 432, np.random.default_rng(3),
                dim=8)
    assert sizes == [144, 256, 32]
    assert f.evaluations == 432
    (_, _, _, ua, ub), (raw, normalized, z) = found
    assert (raw, normalized) == accepted
    assert lands_at(f.instance, z, ua, ub)


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
            _, scales = iq._margins(
                case, Frame.of(f.instance.a, f.instance.x, f.instance.b),
                f.params)
            raw = min(float(np.min(m)) for m in replay)
            normalized = min(float(np.min(m) / s)
                             for m, s in zip(replay, scales))
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
    margins, scales = iq._margins(case, frame, params)
    assert calls == [count]
    assert margins.shape == (comparisons, 4, 3)
    assert scales.shape == (comparisons, 4)


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


if __name__ == "__main__":
    # FUZZ_GOLDEN as this setup finds it, in the form written above
    print("FUZZ_GOLDEN = [")
    for config, _ in FUZZ_GOLDEN:
        cid, overrides, *ints = config
        raw, normalized, evals, digest = golden_of(config)[0]
        print(f"    (({json.dumps(cid)}, {json.dumps(overrides)}, "
              f"{', '.join(map(str, ints))}),")
        print(f'     ("{raw}", "{normalized}", {evals},')
        print(f'      "{digest}")),')
    print("]")
