import json
import pathlib
import re
import shlex

import mpmath as mp
import pytest
from click.testing import CliRunner

import starklab.cli as cli_mod
from starklab.cli import main
from starklab.numerics import ConvergenceError
from starklab.stark import BoundExceeded


def run(*args):
    return CliRunner().invoke(main, list(args))


P11 = '{"D": 5, "ideal": [11, 3, 1]}'
LAT5 = '{"D": 5, "l1": ["1", "0"], "l2": ["1/2", "1/2"]}'


# ---------------------------------------------------------------------------
# exit code 0 paths and report shapes
# ---------------------------------------------------------------------------


def test_theta_check_fe_ok():
    r = run("theta", "check-fe", "--D", "5", "--v", "i",
            "--prec", "96", "--err", "1e-14")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert rep["check"] == "theta-functional-equation"
    assert float(rep["residual"]) < 1e-10


def test_theta_check_average_ok():
    r = run("theta", "check-average", "--D", "2", "--v", "2i",
            "--prec", "96", "--err", "1e-12")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert float(rep["residual"]) < 1e-8


def test_theta_check_poisson_ok():
    r = run("theta", "check-poisson", "--D", "3", "--t", "0.7",
            "--prec", "128", "--err", "1e-20")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert float(rep["residual"]) < 1e-12


def test_stark_compute_reference_value():
    r = run("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]',
            "--s", "2", "--prec", "128", "--err", "1e-25")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert abs(float(rep["zeta_prime_0"]) - 0.76719721825131944) < 1e-14
    assert rep["evaluations"][0]["s"]["re"].startswith("2")


def test_stark_compute_prints_the_computed_digits(monkeypatch):
    # the report carries S0 and zeta'(0) at the working precision, not
    # rounded through a 53-bit float
    computed = []
    stark_number = cli_mod.stark_number

    def keep(*args, **kwargs):
        computed.append(stark_number(*args, **kwargs))
        return computed[-1]

    monkeypatch.setattr(cli_mod, "stark_number", keep)
    r = run("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]')
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    with mp.workdps(60):
        assert abs(mp.mpf(rep["s0"]) - computed[0].s0) < mp.mpf("1e-35")
        assert abs(mp.mpf(rep["zeta_prime_0"]) - computed[0].zeta_prime_0) \
            < mp.mpf("1e-35")


def test_lattice_classify_and_dual():
    r = run("lattice", "classify", "--lattice", LAT5)
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert rep["conductor"] == 1
    r = run("lattice", "dual", "--lattice", LAT5)
    assert r.exit_code == 0, r.output


def test_cyclotomic_table_small():
    r = run("cyclotomic", "table", "--max-n", "6", "--prec", "128",
            "--err", "1e-30")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert rep["pass"] is True
    assert float(rep["max_abs_err"]) < 1e-20


def test_bc_kms_known_value():
    r = run("bc", "kms", "--beta", "2", "--gamma", "1/2")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert abs(float(rep["value_re"]) + 0.5) < 1e-14
    assert abs(float(rep["value_im"])) < 1e-14


# ---------------------------------------------------------------------------
# determinism: repeated runs give byte-identical JSON
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]',
     "--prec", "128", "--err", "1e-25"),
    ("theta", "check-fe", "--D", "5", "--v", "0.5+1i",
     "--prec", "96", "--err", "1e-14"),
    ("cyclotomic", "table", "--max-n", "8"),
    ("bc", "kms", "--beta", "2", "--gamma", "2/5", "--twist", "2"),
    ("lattice", "dual", "--lattice", LAT5),
])
def test_repeated_runs_byte_identical(args):
    a = run(*args)
    b = run(*args)
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output.encode() == b.output.encode()


def test_csv_output(tmp_path):
    out = tmp_path / "rep"
    r = run("bc", "kms", "--beta", "2", "--gamma", "1/3",
            "--out", str(out), "--format", "both")
    assert r.exit_code == 0
    assert (out / "bc_kms.json").exists()
    csv_text = (out / "bc_kms.csv").read_text()
    assert csv_text.splitlines()[0]  # has a header row


# ---------------------------------------------------------------------------
# exit code contract: 2 residual, 3 convergence, 4 invalid input
# ---------------------------------------------------------------------------


def test_exit_4_on_malformed_literals():
    r = run("stark", "compute", "--ideal", "{not json", "--l0", '["1","0"]')
    assert r.exit_code == 4
    r = run("stark", "compute", "--ideal", '{"D": 5}', "--l0", '["1","0"]')
    assert r.exit_code == 4
    r = run("stark", "compute", "--ideal", P11, "--l0", '["1/2", "0"]')
    assert r.exit_code == 4  # non-integral l0 fails validation
    r = run("lattice", "classify", "--lattice", '{"D": 5, "l1": ["1","0"], "l2": ["2","0"]}')
    assert r.exit_code == 4  # rationally dependent generators
    r = run("bc", "kms", "--beta", "0.5", "--gamma", "1/3")
    assert r.exit_code == 4  # beta must exceed 1


def test_exit_2_on_residual_violation():
    # an unreachable tolerance turns the identity check into a reported
    # residual violation
    r = run("cyclotomic", "table", "--max-n", "6", "--tol", "1e-60",
            "--prec", "128", "--err", "1e-30")
    assert r.exit_code == 2


def test_exit_3_on_convergence_failure(monkeypatch):
    def boom(*a, **k):
        raise ConvergenceError("synthetic non-convergence")

    monkeypatch.setattr(cli_mod, "functional_equation_Theta", boom)
    r = run("theta", "check-fe", "--D", "5")
    assert r.exit_code == 3


def test_exit_3_on_bound_exceeded(monkeypatch):
    # the order of the unit 1 + sqrt(2) modulo (211), up to sign, is 212
    r = run("stark", "compute", "--ideal", '{"D": 2, "ideal": [211, 0, 211]}',
            "--l0", '["1", "0"]')
    assert r.exit_code == 3
    assert r.stderr.startswith("bound exceeded:")

    def boom(*a, **k):
        raise BoundExceeded("synthetic ray class overflow")

    monkeypatch.setattr(cli_mod, "conjecture_check", boom)
    r = run("stark", "conjecture", "--modulus", P11)
    assert r.exit_code == 3
    assert r.stderr == "bound exceeded: synthetic ray class overflow\n"


def test_exit_4_on_usage_errors():
    # click reports usage errors with 2, the residual-violation code
    r = run("stark", "compute", "--l0", '["1", "0"]')  # missing --ideal
    assert r.exit_code == 4
    assert "Missing option" in r.stderr
    r = run("theta", "check-fe", "--D", "notanint")
    assert r.exit_code == 4
    r = run("stark", "no-such-command")
    assert r.exit_code == 4


def test_readme_examples_run():
    # every command of the README's usage block runs and exits 0
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    commands = [shlex.split(line) for block in blocks
                for line in block.splitlines() if line.startswith("starklab ")]
    assert len(commands) >= 9
    for argv in commands:
        r = run(*argv[1:])
        assert r.exit_code == 0, (argv, r.output, r.stderr)
