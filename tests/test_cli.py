import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanforge import cli, io
from meanforge import inequalities as iq
from meanforge.inequalities import InstanceTriple
from meanforge.linalg import random_complex, random_hpd


def test_verify_small_run(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--dims", "1,2,4", "--samples", "5",
                     "--seed", "42", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 42
    assert report["dims"] == [1, 2, 4]
    assert all(c["violations"] == 0 for c in report["cases"])


def test_verify_unknown_case():
    assert cli.main(["verify", "--cases", "nosuchcase",
                     "--samples", "2"]) == 2


def test_verify_zero_samples():
    assert cli.main(["verify", "--samples", "0"]) == 2


PART1 = ["--kernel", "part1", "--set", "r=1/4", "--set", "s1=1/2",
         "--set", "s2=1/4", "--set", "t=1"]
FUZZ_NU_800 = ["fuzz", "--case", "eq1.2", "--set", "nu=800",
               "--set", "alpha=0.5", "--expect-violation"]
CONTRACTIVITY_OVERFLOW = ["contractivity", "--kernel", "coshScaled",
                          "--set", "c=800", "--dim", "3"]
# weights with a pole inside the registered range: eq1.1's 2/(2 + t) at
# t = -2 and eq2.13's factor at p = 2r make the margins non-finite
FUZZ_EQ11_POLE = ["fuzz", "--case", "eq1.1", "--set", "t=-2",
                  "--budget", "12", "--dim", "2"]
FUZZ_EQ213_POLE = ["fuzz", "--case", "eq2.13", "--set", "p=0.5",
                   "--set", "r=0.25", "--budget", "30", "--dim", "2"]

# argv -> exit code: 2 for a bad flag, 3 for a numerical failure
EXIT_CODES = {
    "verify-duplicate-dims": (["verify", "--dims", "2,2", "--samples", "1"],
                              2),
    "verify-duplicate-cases": (["verify", "--cases", "eq1.2,eq1.2",
                                "--samples", "1"], 2),
    "verify-workers-0": (["verify", "--workers", "0"], 2),
    "verify-tol-nan": (["verify", "--tol", "nan"], 2),
    # a negative tolerance would turn positive margins into violations
    "verify-tol-negative": (["verify", "--tol", "-1", "--samples", "2",
                             "--dims", "1", "--cases", "eq1.2"], 2),
    "fuzz-tol-negative": (["fuzz", "--case", "eq1.2", "--tol", "-1",
                           "--budget", "10"], 2),
    "contractivity-tol-negative": (["contractivity", *PART1, "--tol", "-1"],
                                   2),
    "verify-cond-lo-0": (["verify", "--cond-lo", "0"], 2),
    "verify-cond-lo-above-hi": (["verify", "--cond-lo", "3",
                                 "--cond-hi", "2"], 2),
    # eigenvalues up to 1e300 overflow the kernel grids to inf or NaN
    "verify-cond-overflow": (["verify", "--cond-lo", "1e-300",
                              "--cond-hi", "1e300", "--dims", "3",
                              "--samples", "3"], 3),
    "verify-seed-negative": (["verify", "--seed", "-1"], 2),
    # an --out directory that does not exist is a bad flag, found before
    # any work is done
    "verify-out-missing-dir": (["verify", "--dims", "1", "--samples", "1",
                                "--out", "missing/r.json"], 2),
    "fuzz-out-missing-dir": (["fuzz", "--case", "eq1.2", "--budget", "10",
                              "--out", "missing/w.json"], 2),
    "gen-out-missing-dir": (["gen", "--dim", "2", "--out", "missing/i.json"],
                            2),
    "fuzz-seed-negative": (["fuzz", "--case", "eq1.2", "--seed", "-1"], 2),
    "gen-seed-negative": (["gen", "--dim", "2", "--seed", "-1",
                           "--out", "i.json"], 2),
    "contractivity-seed-negative": (["contractivity", "--kernel", "sinch",
                                     "--seed", "-1"], 2),
    "fuzz-unknown-parameter": (["fuzz", "--case", "eq1.2",
                                "--set", "nuu=0.1", "--budget", "10"], 2),
    "fuzz-set-nan": (["fuzz", "--case", "eq1.2", "--set", "nu=nan"], 2),
    # a repeated name would keep its last value silently
    "fuzz-set-repeated": (["fuzz", "--case", "eq1.2", "--set", "nu=0.1",
                           "--set", "nu=0.2", "--budget", "5"], 2),
    "contractivity-set-repeated": (["contractivity", *PART1, "--set",
                                    "t=0.5"], 2),
    "fuzz-zero-dim": (["fuzz", "--case", "eq1.2", "--dim", "0",
                       "--budget", "10"], 2),
    # the one random restart overflows to a NaN margin
    "fuzz-nan-margin": (FUZZ_NU_800 + ["--budget", "3"], 3),
    # a later restart (the 17th of 20) is finite and replaces the NaN
    # ones: a violation
    "fuzz-nan-restart-replaced": (FUZZ_NU_800 + ["--budget", "60"], 0),
    "fuzz-eq1.1-pole": (FUZZ_EQ11_POLE, 3),
    # past the pole the right weight 2/(2 + t) is negative: raw margins
    # near -7e3 are violations, not turned positive by their scale
    "fuzz-eq1.1-negative-weight": (["fuzz", "--case", "eq1.1", "--set",
                                    "t=-3", "--budget", "60", "--dim", "2",
                                    "--expect-violation"], 0),
    "fuzz-eq2.13-pole": (FUZZ_EQ213_POLE, 3),
    "contractivity-unknown-parameter": (["contractivity", *PART1,
                                         "--set", "tt=5"], 2),
    "contractivity-unknown-kernel": (["contractivity", "--kernel", "nope"],
                                     2),
    "contractivity-pole": (["contractivity", "--kernel", "coshRatioT",
                            "--set", "r=1", "--set", "s1=1",
                            "--set", "s2=1", "--set", "t=-1"], 3),
    # cosh(800 d) overflows the kernel grid: maxRatio is NaN, with or
    # without --report-only
    "contractivity-overflow": (CONTRACTIVITY_OVERFLOW, 3),
    "contractivity-overflow-report-only": (CONTRACTIVITY_OVERFLOW
                                           + ["--report-only"], 3),
    # the integral over an empty or reversed nu interval is not defined
    "contractivity-reversed-interval": (["contractivity", "--kernel",
                                         "heinzAverage", "--set", "lo=0.6",
                                         "--set", "hi=0.4"], 2),
    "contractivity-empty-interval": (["contractivity", "--kernel",
                                      "heinzAverage", "--set", "lo=1/2",
                                      "--set", "hi=1/2"], 2),
}


@pytest.mark.parametrize("argv, code", EXIT_CODES.values(),
                         ids=list(EXIT_CODES))
def test_exit_code(argv, code, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code


@pytest.mark.parametrize("argv, code", [
    (["verify", "--workers", "0"], 2),
    (["verify", "--cond-lo", "1e-300", "--cond-hi", "1e300",
      "--dims", "3", "--samples", "3"], 3),
    (["verify", "--samples", "1", "--dims", "1"], 0),
    (["fuzz", "--case", "eq1.2", "--budget", "10",
      "--out", "missing/w.json"], 2),
    (CONTRACTIVITY_OVERFLOW + ["--report-only"], 3),
    (FUZZ_EQ11_POLE, 3),
    (FUZZ_EQ213_POLE, 3),
], ids=["bad-flag", "numerical-failure", "clean", "out-missing-dir",
        "contractivity-overflow", "fuzz-eq1.1-pole", "fuzz-eq2.13-pole"])
def test_process_exit_status(argv, code, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "meanforge.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    # non-finite grids never reach LAPACK, whose complaints go to stdout
    assert "DLASCL" not in proc.stdout


def test_verify_numerical_failure_exits_3(monkeypatch, tmp_path):
    from test_inequalities import nan_first_step
    monkeypatch.setitem(iq.REGISTRY, "eq1.2",
                        nan_first_step(iq.get_case("eq1.2")))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--cases", "eq1.2", "--dims", "1,2",
                     "--samples", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["cases"][0]["numericalFailures"] == 6


def test_verify_counts_a_weight_pole_as_numerical_failures(monkeypatch,
                                                           tmp_path):
    case = iq.get_case("eq1.1")
    monkeypatch.setitem(iq.REGISTRY, "eq1.1", dataclasses.replace(
        case, sampler=lambda rng: {**case.sampler(rng), "t": -2.0}))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--cases", "eq1.1", "--dims", "1,2",
                     "--samples", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["cases"][0]["numericalFailures"] == 6


def test_verify_svd_failure_stops_only_its_cell(tmp_path):
    # eigenvalues up to 1e300 overflow some cells, whose margins fail;
    # the other cells are still checked and the report is written
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--cond-lo", "1e-300", "--cond-hi", "1e300",
                     "--dims", "3", "--samples", "3", "--out",
                     str(out)]) == 3
    cases = json.loads(out.read_text())["cases"]
    assert [c["id"] for c in cases] == list(iq.CASE_IDS)
    assert sum(c["numericalFailures"] for c in cases) > 0
    # each case has a minimum, or failures in place of its margins
    assert all(np.isfinite(c["minMargin"]) or c["numericalFailures"]
               for c in cases)


def test_verify_fraction_flags(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--dims", "2", "--samples", "3",
                     "--cases", "eq2.7", "--tol", "1/1000000000",
                     "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["tolerance"] == 1e-9


def test_fuzz_expected_violation(tmp_path):
    witness = tmp_path / "w.json"
    code = cli.main(["fuzz", "--case", "eq1.2", "--set", "nu=0.1",
                     "--set", "alpha=0.5", "--dim", "1",
                     "--budget", "1000", "--expect-violation",
                     "--out", str(witness)])
    assert code == 0
    inst = io.load_instance(witness)
    assert inst.dim == 1


def test_fuzz_in_range_no_violation():
    assert cli.main(["fuzz", "--case", "eq1.3", "--dim", "2",
                     "--budget", "300"]) == 1


def test_fuzz_unknown_case():
    assert cli.main(["fuzz", "--case", "nope", "--budget", "10"]) == 2


def test_fuzz_bad_override():
    assert cli.main(["fuzz", "--case", "eq1.2", "--set", "nu",
                     "--budget", "10"]) == 2


@pytest.mark.parametrize("flag", ["--samples", "--dim"])
def test_contractivity_nothing_to_check(flag):
    assert cli.main(["contractivity", "--kernel", "constant",
                     "--set", "value=1", flag, "0"]) == 2


def test_contractivity_in_hypothesis():
    code = cli.main(["contractivity", "--kernel", "part1",
                     "--set", "r=1/4", "--set", "s1=1/2", "--set", "s2=1/4",
                     "--set", "t=1", "--dim", "4", "--samples", "50"])
    assert code == 0


@pytest.mark.parametrize("alias, kind, sets", [
    ("part1", "coshRatioT", "r=1/4 s1=1/2 s2=1/4 t=1"),
    ("part2", "coshComboRatio", "r=0.2 rp=-0.3 s1=0.9 s2=0.4 alpha=0.3 "
                                "beta=0.7"),
    ("part3", "sinhRatioT", "r=0.7 s1=1.5 s2=0.8 t=0.4"),
    ("part4", "sinhComboRatio", "r=0.5 rp=-0.6 s1=1.5 s2=0.8 alpha=0.3 "
                                "beta=0.6"),
])
def test_contractivity_alias_names_its_family(alias, kind, sets, capsys):
    flags = [f for item in sets.split() for f in ("--set", item)]
    lines = []
    for name in (alias, kind):
        assert cli.main(["contractivity", "--kernel", name, *flags,
                         "--dim", "3", "--samples", "10"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0].startswith("maxRatio = ")
    assert lines[0] == lines[1]


@pytest.mark.parametrize("kernel, sets", [
    ("constant", ["value=2"]),
    ("coshScaled", ["c=1"]),
    ("sinch", []),
    ("heinzAverage", ["lo=0", "hi=1"]),
])
def test_contractivity_states_no_hypothesis_off_the_families(kernel, sets,
                                                            capsys):
    # the paper states a hypothesis for the four rational families only
    flags = [f for item in sets for f in ("--set", item)]
    cli.main(["contractivity", "--kernel", kernel, *flags,
              "--dim", "1", "--samples", "3"])
    out = capsys.readouterr().out
    assert out.startswith("maxRatio = ")
    assert f"(hypothesis: none stated for {kernel})" in out
    assert "literal=" not in out
    assert cli.main(["contractivity", *PART1, "--samples", "3"]) == 0
    assert "(hypothesis: literal=True abs=True)" in capsys.readouterr().out


def test_contractivity_identity_kernel():
    code = cli.main(["contractivity", "--kernel", "constant",
                     "--set", "value=1", "--dim", "3", "--samples", "20"])
    assert code == 0


def test_contractivity_report_only_out_of_hypothesis():
    code = cli.main(["contractivity", "--kernel", "part1",
                     "--set", "r=3", "--set", "s1=1", "--set", "s2=0.5",
                     "--set", "t=0.5", "--dim", "4", "--samples", "20",
                     "--report-only"])
    assert code == 0


def test_contractivity_missing_param():
    assert cli.main(["contractivity", "--kernel", "part1",
                     "--set", "r=1"]) == 2


def test_gen_deterministic_and_round_trip(tmp_path):
    f1, f2 = tmp_path / "i1.json", tmp_path / "i2.json"
    assert cli.main(["gen", "--dim", "3", "--seed", "9",
                     "--cond-lo", "0.01", "--cond-hi", "100",
                     "--out", str(f1)]) == 0
    assert cli.main(["gen", "--dim", "3", "--seed", "9",
                     "--cond-lo", "0.01", "--cond-hi", "100",
                     "--out", str(f2)]) == 0
    assert f1.read_text() == f2.read_text()
    inst = io.load_instance(f1)
    assert inst.dim == 3
    assert np.all(inst.a.eigenvalues > 0)


def test_gen_bad_flags():
    assert cli.main(["gen", "--dim", "0", "--out", "/tmp/x.json"]) == 2


def test_instance_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    inst = InstanceTriple(random_hpd(4, rng), random_hpd(4, rng),
                          random_complex(4, rng))
    path = tmp_path / "inst.json"
    io.save_instance(inst, path)
    loaded = io.load_instance(path)
    assert np.abs(loaded.a.matrix - inst.a.matrix).max() <= 1e-15
    assert np.abs(loaded.b.matrix - inst.b.matrix).max() <= 1e-15
    assert np.array_equal(loaded.x, inst.x)


def test_report_round_trip_through_a_file(monkeypatch, tmp_path):
    # every margin of eq1.3 NaN: its minMargin inf is written as Infinity
    # and read back as a float
    case = iq.get_case("eq1.3")

    def build(*args):
        grids, steps = case.builder(*args)
        return np.full_like(grids, np.nan), steps

    monkeypatch.setitem(iq.REGISTRY, "eq1.3",
                        dataclasses.replace(case, builder=build))
    report = iq.run_suite([1, 2], 3, seed=5, case_ids=["eq1.2", "eq1.3"])
    path = tmp_path / "r.json"
    io.save_report(report, path)
    assert "Infinity" in path.read_text()
    loaded = io.load_report(path)
    assert loaded.to_dict() == report.to_dict()
    assert loaded.cases[1].min_margin == np.inf
    assert type(loaded.cases[1].min_margin) is float


def test_load_rejects_non_hermitian(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"dim": 2,
           "A": [[1, 0], [1, 0], [0, 0], [1, 0]],
           "B": [[1, 0], [0, 0], [0, 0], [1, 0]],
           "X": [[0, 0], [0, 0], [0, 0], [0, 0]]}
    path.write_text(json.dumps(doc))
    from meanforge.errors import NotHermitianError
    with pytest.raises(NotHermitianError):
        io.load_instance(path)
