import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from meanforge import inequalities as iq
from meanforge.errors import RangeViolationError, UnknownCaseError
from meanforge.linalg import Frame, HpdMatrix

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
    assert r1.to_dict(include_timing=False) == r2.to_dict(include_timing=False)


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


def test_suite_small_run_sound():
    report = iq.run_suite([1, 2, 4], 25, seed=2024)
    assert report.total_violations == 0
    assert all(len(c.steps) >= 1 for c in report.cases)


def test_suite_parallel_matches_serial():
    serial = iq.run_suite([1, 2], 5, seed=31, workers=1)
    parallel = iq.run_suite([1, 2], 5, seed=31, workers=2)
    assert (serial.to_dict(include_timing=False)
            == parallel.to_dict(include_timing=False))


def test_blocked_cells_match_one_block(monkeypatch):
    # cells evaluated three samples at a time give the same report, bit for
    # bit, as each cell in one block
    whole = iq.run_suite([1, 3], 10, seed=29).to_dict(include_timing=False)
    monkeypatch.setattr(iq, "CELL_BLOCK", 3)
    blocked = iq.run_suite([1, 3], 10, seed=29).to_dict(include_timing=False)
    assert blocked == whole
    # some worst samples sit past the first block
    assert any(c["worstSeed"][1] >= 3 for c in blocked["cases"])


def test_criterion_1_minima_match_reference():
    # per-case and per-step minima recorded from the matrix-product
    # implementation that preceded the kernel-grid engine
    ref = json.loads(REFERENCE.read_text())
    report = iq.run_suite(ref["dims"], ref["samples"], seed=ref["seed"])
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
    """The case with the right side of its first step weighted by NaN."""
    def build(*args):
        first, *rest = case.builder(*args)
        return [iq.Step(first.lhs, [(c * np.nan, m) for c, m in first.rhs]),
                *rest]
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

    def fail_at_dim_2(steps, xt=1.0):
        if np.shape(xt)[-1] == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return margins(steps, xt)

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


def test_fuzz_out_of_range_finds_violation():
    rng = np.random.default_rng(0)
    finding = iq.fuzz(iq.get_case("eq1.2"), {"nu": 0.1, "alpha": 0.5},
                      1000, rng, dim=1)
    assert finding.evaluations <= 1000
    assert finding.margin <= -2.0
    assert finding.violation


def test_fuzz_nan_restart_never_stays_best(monkeypatch):
    # the first random restart of the stack evaluates to NaN and so does
    # every descent candidate: a finite restart must be the finding
    margin = iq._instance_margin

    def first_nan(case, frame, params):
        raw, normalized = margin(case, frame, params)
        if not np.ndim(raw):  # a descent candidate
            return np.nan, np.nan
        raw[0] = normalized[0] = np.nan
        return raw, normalized

    monkeypatch.setattr(iq, "_instance_margin", first_nan)
    finding = iq.fuzz(iq.get_case("eq1.3"), {}, 30, np.random.default_rng(1))
    assert np.isfinite(finding.margin)
    assert np.isfinite(finding.normalized_margin)


def test_fuzz_descent_leaves_a_nan_best(monkeypatch):
    # every random restart is NaN; the first finite candidate replaces it
    margin = iq._instance_margin

    def nan_restarts(case, frame, params):
        raw, normalized = margin(case, frame, params)
        if np.ndim(raw):  # a restart stack
            raw[:] = normalized[:] = np.nan
        return raw, normalized

    monkeypatch.setattr(iq, "_instance_margin", nan_restarts)
    finding = iq.fuzz(iq.get_case("eq1.3"), {}, 30, np.random.default_rng(1))
    assert np.isfinite(finding.margin)
    assert np.isfinite(finding.normalized_margin)


# Findings of the fuzzer before its restarts were evaluated as frame
# stacks: (case, overrides, dim, budget, seed) -> float.hex of the raw and
# normalized margins, evaluations and the first 16 hex digits of the
# SHA-256 of the witness's eigenvalues, eigenvectors and X.  Budget 1000
# has 333 restarts, more than one CELL_BLOCK.  The bits depend on LAPACK
# QR and SVD rounding: they were recorded with numpy 2.4.6 on
# scipy-openblas 0.3.31 (x86_64, one BLAS thread), so on another BLAS
# build a mismatch here need not mean that the search changed.
FUZZ_GOLDEN = [
    (("eq1.2", {"nu": 0.1, "alpha": 0.5}, 4, 300, 0),
     ("-0x1.12410826d4140p+12", "-0x1.4c04115e42631p-4", 300,
      "ecf707ef02330a09")),
    (("eq2.9", {"nu": 0.05, "alpha": 0.5}, 4, 1000, 1),
     ("-0x1.5b7117c431b2ep+23", "-0x1.2909b5c05295fp+1", 1000,
      "99f9fe5a0d4aaa0b")),
    (("eq1.4-chain", {"alpha": 0.2}, 2, 1000, 2),
     ("-0x1.13fe607e39d2cp+40", "-0x1.7f29d6a357184p-3", 1000,
      "d5a3a4187d9b9a66")),
    (("eq1.4-chain", {"alpha": 0.5}, 3, 300, 3),
     ("0x1.ae46567bb3000p-18", "0x1.a29a326958734p-18", 300,
      "7ca665e9f66db0d1")),
    (("eq1.2", {"nu": 0.3, "alpha": 0.5}, 2, 1000, 4),
     ("0x1.4bb09f0100000p-28", "0x1.4a89a52fa163cp-28", 1000,
      "e4d9245ef38690f6")),
]


@pytest.mark.parametrize("config, expected", FUZZ_GOLDEN,
                         ids=[f"{c[0]}-dim{c[2]}-budget{c[3]}"
                              for c, _ in FUZZ_GOLDEN])
def test_fuzz_findings_unchanged(config, expected):
    cid, overrides, dim, budget, seed = config
    f = iq.fuzz(iq.get_case(cid), dict(overrides), budget,
                np.random.default_rng(seed), dim=dim)
    digest = hashlib.sha256()
    for arr in (f.instance.a.eigenvalues, f.instance.a.eigenvectors,
                f.instance.b.eigenvalues, f.instance.b.eigenvectors,
                f.instance.x):
        digest.update(arr.tobytes())
    assert (f.margin.hex(), f.normalized_margin.hex(), f.evaluations,
            digest.hexdigest()[:16]) == expected
    assert f.violation == (f.normalized_margin < -iq.DEFAULT_TOLERANCE)


def test_fuzz_scores_frames_not_matrices(monkeypatch):
    # one evaluator call per restart block and per descent candidate; the
    # witness is the only HpdMatrix built
    calls, built = [], []
    margin = iq._instance_margin
    spectrum = iq.HpdMatrix.from_spectrum.__func__

    def counted(case, frame, params):
        calls.append(np.ndim(frame.xt) - 2)
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
    # 333 restarts as stacks of 256 and 77, then 667 single frames
    assert calls == [1, 1] + [0] * 667
    assert len(built) == 2


def test_fuzz_in_range_finds_nothing():
    rng = np.random.default_rng(1)
    finding = iq.fuzz(iq.get_case("eq1.3"), {}, 400, rng, dim=2)
    assert not finding.violation


def test_fuzz_equal_operands_never_negative():
    # with A = B every mean is a convex recombination of the same terms
    rng = np.random.default_rng(2)
    case = iq.get_case("eq1.2")
    for _ in range(50):
        from meanforge.linalg import random_complex, random_hpd
        a = random_hpd(3, rng)
        x = random_complex(3, rng)
        inst = iq.InstanceTriple(a, a, x)
        params = case.sampler(rng)
        margins = iq.evaluate(case, inst, params)
        assert min(float(np.min(m)) for m in margins) >= -1e-9
