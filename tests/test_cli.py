import json

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


def test_verify_duplicate_dims():
    assert cli.main(["verify", "--dims", "2,2", "--samples", "1"]) == 2


def test_verify_bad_thread_count(monkeypatch):
    monkeypatch.setenv("MEANFORGE_THREADS", "x")
    assert cli.main(["verify", "--dims", "1", "--samples", "1"]) == 2


def test_verify_numerical_failure_exits_3(monkeypatch, tmp_path):
    from test_inequalities import nan_first_step
    monkeypatch.setitem(iq.REGISTRY, "eq1.2",
                        nan_first_step(iq.get_case("eq1.2")))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--cases", "eq1.2", "--dims", "1,2",
                     "--samples", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["cases"][0]["numericalFailures"] == 6


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


def test_fuzz_unknown_parameter():
    assert cli.main(["fuzz", "--case", "eq1.2", "--set", "nuu=0.1",
                     "--budget", "10"]) == 2


def test_fuzz_zero_dim():
    assert cli.main(["fuzz", "--case", "eq1.2", "--dim", "0",
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
