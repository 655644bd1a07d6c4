import argparse
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanforge import cli, io
from meanforge import inequalities as iq
from meanforge.inequalities import InstanceTriple
from meanforge.linalg import HpdMatrix, random_complex, random_hpd


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
    # numbers whose float conversion raises: ValueError, ZeroDivisionError
    # and OverflowError
    "verify-tol-not-a-number": (["verify", "--tol", "abc"], 2),
    "verify-cond-hi-zero-denominator": (["verify", "--cond-hi", "1/0"], 2),
    "fuzz-set-zero-denominator": (["fuzz", "--case", "eq1.2",
                                   "--set", "nu=1/0"], 2),
    "fuzz-set-fraction-overflow": (["fuzz", "--case", "eq1.2",
                                    "--set", f"nu=1{'0' * 400}/1"], 2),
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
    # a large degree: the search scores Y = (ab)^(p/2) o Xt directly, so
    # nothing underflows and a finding is compared
    "fuzz-eq2.12-large-p": (["fuzz", "--case", "eq2.12", "--set", "p=300",
                             "--dim", "1", "--budget", "30"], 0),
    # out of range, a violation found without --expect-violation: exit 1
    "fuzz-violation-not-expected": (["fuzz", "--case", "eq1.2", "--set",
                                     "nu=0.1", "--set", "alpha=0.5",
                                     "--dim", "1", "--budget", "30"], 1),
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


def test_fuzz_numerical_failure_writes_no_witness(tmp_path):
    # a witness without a finite margin is no finding: nothing to write
    out = tmp_path / "w.json"
    assert cli.main(FUZZ_EQ11_POLE + ["--out", str(out)]) == 3
    assert not out.exists()


def test_fuzz_large_degree_writes_a_finite_witness(tmp_path):
    # p enters only at the witness X = (ab)^(-p/2) o Y, on logs less their
    # mean: at p = 400 every entry it writes is finite, and it loads
    out = tmp_path / "w.json"
    assert cli.main(["fuzz", "--case", "f-nu-shape", "--set", "p=400",
                     "--dim", "2", "--budget", "1000",
                     "--out", str(out)]) == 0
    entries = json.loads(out.read_text())
    assert all(np.isfinite(entries[k]).all() for k in ("A", "B", "X"))
    inst = io.load_instance(out)
    assert inst.dim == 2 and np.isfinite(inst.x).all()


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
    # no violation, and none expected: exit 0
    assert cli.main(["fuzz", "--case", "eq1.3", "--dim", "2",
                     "--budget", "300"]) == 0


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


def test_contractivity_svd_failure_exits_3(monkeypatch):
    from test_linalg import fail_lapack
    fail_lapack(monkeypatch)
    assert cli.main(["contractivity", "--kernel", "sinch", "--dim", "3",
                     "--samples", "3"]) == 3


@pytest.mark.parametrize("argv", [
    ["gen", "--dim", "2", "--out", "i.json"],
    ["verify", "--dims", "2", "--samples", "2", "--cases", "eq1.2"],
], ids=["gen", "verify"])
def test_qr_failure_exits_3(argv, monkeypatch, tmp_path):
    from test_linalg import fail_lapack
    monkeypatch.chdir(tmp_path)
    fail_lapack(monkeypatch, "qr")
    assert cli.main(argv) == 3
    assert not (tmp_path / "i.json").exists()


def test_contractivity_forms_no_unitary(monkeypatch, capsys):
    # the check reads no eigenvector, so a QR that would fail is never
    # run, and the line printed is the one printed with it working
    from test_dmap import refuse_unitaries
    argv = ["contractivity", *PART1, "--dim", "5", "--samples", "20"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    refuse_unitaries(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


def test_contractivity_default_tolerance():
    args = cli._build_parser().parse_args(["contractivity", "--kernel",
                                           "sinch"])
    assert args.tol == iq.DEFAULT_TOLERANCE


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[str]:
    """The ``meanforge ...`` lines of the README's sh blocks, each with
    its backslash continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("meanforge ")]


def _subcommands(parser) -> dict:
    """Subcommand name -> its parser."""
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_readme_cli_examples_parse():
    # parsed only, not run; every subcommand has an example
    parser = cli._build_parser()
    commands = [shlex.split(line)[1:] for line in _readme_commands()]
    assert {argv[0] for argv in commands} == set(_subcommands(parser))
    for argv in commands:
        parser.parse_args(argv)


def test_readme_kernel_list_is_the_parsers():
    text = README.read_text()
    bullet = re.search(r"- `--kernel` must be one of (.*?)\n  - ", text,
                       re.S)[1]
    # `part1`–`part4` stands for part1, part2, part3, part4
    bullet = re.sub(r"`([a-z]+)(\d+)`–`\1(\d+)`", lambda m: ", ".join(
        f"`{m[1]}{i}`" for i in range(int(m[2]), int(m[3]) + 1)), bullet)
    parser = _subcommands(cli._build_parser())["contractivity"]
    kernel, = (a for a in parser._actions if a.dest == "kernel")
    assert re.findall(r"`(\w+)`", bullet) == list(kernel.choices)


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


# gen flags after --seed 9 -> SHA-256 of the instance file written.  A
# and B are V diag(w) V* of random_hpd's draw, so the bits of dims 3 and
# 6 depend on LAPACK's QR and matrix product rounding, and hold for the
# numpy and BLAS build that tests/test_inequalities.py's FUZZ_GOLDEN
# names.
GEN_GOLDEN = {
    ("--dim", "1"):
        "32ecee4561ca03739a5ee16e8bbc9385048f46788bdd078b2ebfc80159123a0c",
    ("--dim", "3"):
        "be159edc5fe8da802c143df66d289e6d6d0133399ad7fc0a5613d8d4a5d8f989",
    ("--dim", "6"):
        "b41ffab41dfdec5b95ca9daa3c7ed4e7586626e6416c4d2747ff41e07233746e",
    ("--dim", "3", "--cond-lo", "0.01", "--cond-hi", "100"):
        "0ce908a51683f70e07f7538d47aa8a0d770127ff12d17ac97dadf75e9d968f3f",
}


@pytest.mark.parametrize("flags, digest", GEN_GOLDEN.items(),
                         ids=[" ".join(f) for f in GEN_GOLDEN])
def test_gen_output_unchanged(flags, digest, tmp_path):
    out = tmp_path / "inst.json"
    assert cli.main(["gen", "--seed", "9", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# subcommand -> option string -> (default, type, required, choices,
# action class, metavar): every option the parser takes, help text aside
_HELP = (argparse.SUPPRESS, None, False, None, "_HelpAction", None)
_SEED = (0, cli.parse_seed, False, None, "_StoreAction", None)
_TOL = (iq.DEFAULT_TOLERANCE, cli.parse_tolerance, False, None,
        "_StoreAction", None)
_SET = ([], cli.parse_override, False, None, "_AppendAction", "NAME=VALUE")
_COND_LO = (0.05, cli.parse_number, False, None, "_StoreAction", None)
_COND_HI = (20.0, cli.parse_number, False, None, "_StoreAction", None)
_OUT = (None, cli.parse_out, False, None, "_StoreAction", None)
CLI_SURFACE = {
    "verify": {
        "--dims": ([1, 2, 3, 4, 5, 6], cli.parse_dims, False, None,
                   "_StoreAction", None),
        "--samples": (200, cli.parse_count, False, None, "_StoreAction",
                      None),
        "--seed": _SEED, "--tol": _TOL,
        "--cases": (None, cli.parse_cases, False, None, "_StoreAction",
                    None),
        "--cond-lo": _COND_LO, "--cond-hi": _COND_HI,
        "--workers": (1, cli.parse_count, False, None, "_StoreAction", None),
        "--out": _OUT,
    },
    "fuzz": {
        "--case": (None, None, True, None, "_StoreAction", None),
        "--set": _SET,
        "--budget": (1000, cli.parse_count, False, None, "_StoreAction",
                     None),
        "--dim": (1, cli.parse_count, False, None, "_StoreAction", None),
        "--seed": _SEED, "--tol": _TOL,
        "--expect-violation": (False, None, False, None, "_StoreTrueAction",
                               None),
        "--out": _OUT,
    },
    "contractivity": {
        "--kernel": (None, None, True,
                     ["constant", "coshScaled", "coshRatioT",
                      "coshComboRatio", "sinhRatioT", "sinhComboRatio",
                      "sinch", "heinzAverage", "part1", "part2", "part3",
                      "part4"], "_StoreAction", None),
        "--set": _SET,
        "--dim": (4, cli.parse_count, False, None, "_StoreAction", None),
        "--samples": (100, cli.parse_count, False, None, "_StoreAction",
                      None),
        "--seed": _SEED, "--tol": _TOL,
        "--report-only": (False, None, False, None, "_StoreTrueAction",
                          None),
    },
    "gen": {
        "--dim": (None, cli.parse_count, True, None, "_StoreAction", None),
        "--seed": _SEED, "--cond-lo": _COND_LO, "--cond-hi": _COND_HI,
        "--out": (None, cli.parse_out, True, None, "_StoreAction", None),
    },
}


@pytest.mark.parametrize("command", CLI_SURFACE)
def test_cli_surface_unchanged(command):
    parser = _subcommands(cli._build_parser())[command]
    got = {option: (a.default, a.type, a.required, a.choices,
                    type(a).__name__, a.metavar)
           for a in parser._actions for option in a.option_strings}
    assert got == {"-h": _HELP, "--help": _HELP, **CLI_SURFACE[command]}


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


def test_load_rejects_non_hermitian_that_underflows():
    # ||A - A*|| and ||A|| both underflow to 0 for this A; over its
    # largest entry it is plainly not Hermitian
    tiny = 1e-170
    doc = {"dim": 2,
           "A": [[tiny, 0], [tiny, 0], [-tiny, 0], [tiny, 0]],
           "B": [[1, 0], [0, 0], [0, 0], [1, 0]],
           "X": [[0, 0], [0, 0], [0, 0], [0, 0]]}
    from meanforge.errors import NotHermitianError
    with pytest.raises(NotHermitianError, match="loaded A"):
        io.instance_from_dict(doc)


def _identity_doc():
    one = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    return {"dim": 2, "A": one, "B": [e[:] for e in one],
            "X": [e[:] for e in one]}


@pytest.mark.parametrize("name", ["A", "B", "X"])
@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
def test_load_rejects_a_non_finite_entry(name, token):
    # json reads these tokens; the entry rule refuses them before any
    # Hermitian check, and without a numpy warning
    doc = _identity_doc()
    doc[name][1] = ["__entry__", 0.0]
    text = json.dumps(doc).replace('"__entry__"', token)
    with pytest.raises(ValueError, match=f"^{name} must be 4 \\[re, im\\] "
                       "pairs of finite numbers$"):
        io.instance_from_dict(json.loads(text))


@pytest.mark.parametrize("name", ["A", "B", "X"])
@pytest.mark.parametrize("entries", [
    lambda e: e[:3],  # a short list
    lambda e: [*e, [0.0, 0.0]],  # a long one
    lambda e: [[1.0, 0.0, 0.0], *e[1:]],  # a three-element pair
    lambda e: [[1.0], *e[1:]],  # a one-element pair
    lambda e: [[1.0, [0.0]], *e[1:]],  # a ragged pair
    lambda e: [[1.0, None], *e[1:]],  # not a number
    lambda e: [["1", 0.0], *e[1:]],  # a string, though numpy would read it
    lambda e: [[10 ** 400, 0.0], *e[1:]],  # too large for a float
], ids=["short", "long", "triple", "single", "ragged", "null", "string",
        "huge"])
def test_load_rejects_entries_of_the_wrong_shape(name, entries):
    doc = _identity_doc()
    doc[name] = entries(doc[name])
    with pytest.raises(ValueError, match=f"^{name} must be 4 "):
        io.instance_from_dict(doc)


def test_load_reads_integer_entries_as_floats():
    doc = _identity_doc()
    doc["X"] = [[1, 0], [2, -3], [0, 0], [2 ** 53 + 1, 0]]
    inst = io.instance_from_dict(doc)
    assert inst.x.tolist() == [[1, 2 - 3j], [0, complex(2 ** 53 + 1, 0)]]
    assert inst.a.matrix.tolist() == np.eye(2).tolist()


def test_instance_round_trip_keeps_signed_zeros_and_subnormals(tmp_path):
    tiny = 5e-324
    a = HpdMatrix.from_matrix(np.array([[2.0 - 0.0j, tiny],
                                        [tiny, 3.0 - 0.0j]]))
    b = HpdMatrix.from_matrix(np.array([[1.0, -0.0], [-0.0, 1.0]],
                                       dtype=complex))
    x = np.array([[-0.0 - 0.0j, tiny - tiny * 1j],
                  [-tiny + 0.0j, complex(-0.0, 2.5e-310)]])
    path = tmp_path / "inst.json"
    io.save_instance(InstanceTriple(a, b, x), path)
    loaded = io.load_instance(path)
    for got, want in ((loaded.a.matrix, a.matrix), (loaded.b.matrix, b.matrix),
                      (loaded.x, x)):
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("doc, reason", [
    ([], "must be a JSON object, not list"),
    ("dim", "must be a JSON object, not str"),
    (None, "must be a JSON object, not NoneType"),
    ({"A": [], "B": [], "X": []}, "lacks dim$"),
    ({"dim": 2, "A": []}, "lacks B, X$"),
    ({}, "lacks dim, A, B, X$"),
], ids=["list", "string", "null", "no-dim", "no-B-X", "empty"])
def test_load_names_a_missing_key_or_a_document_that_is_no_object(doc,
                                                                   reason):
    # a KeyError or a TypeError would say neither
    with pytest.raises(ValueError, match=reason):
        io.instance_from_dict(doc)


@pytest.mark.parametrize("dim", [0, -1, 1.7, 1.0, True, "1", None])
def test_load_rejects_a_dim_that_is_not_a_count(dim):
    # dim 0 would give a 0 x 0 instance, 1.7 and true would read as 1
    entries = [] if dim == 0 else [[1, 0]]
    doc = {"dim": dim, "A": entries, "B": entries, "X": entries}
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        io.instance_from_dict(doc)
