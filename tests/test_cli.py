import csv
import dataclasses
import io
import json
import os
import pathlib
import re
import resource
import shlex
import signal
import subprocess
import sys
import time

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


def test_theta_check_poisson_residual_is_not_zero_by_construction():
    # with shift (0, 0) and eta = 1 both sides cancel under z -> -z, and the
    # residual read 0.0 whatever the dual side computed
    r = run("theta", "check-poisson", "--D", "2", "--t", "0.7")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert rep["shift"] == ["0.3", "-0.2"]
    assert 0 < float(rep["residual"]) < float(rep["tolerance"])


def test_theta_check_poisson_fails_on_a_wrong_dual_side(monkeypatch):
    import starklab.theta as th

    theta_complex = th.theta_complex

    def skewed(spec, ctx):
        value = theta_complex(spec, ctx)
        if mp.mpc(spec.eta).real == 0:  # the dual side, eta -> i conj(eta)
            return value._replace(value=value.value * (1 + mp.mpf("1e-9")))
        return value

    monkeypatch.setattr(th, "theta_complex", skewed)
    r = run("theta", "check-poisson", "--D", "2", "--t", "0.7")
    assert r.exit_code == 2
    assert r.stderr.startswith("residual violation:")


def test_stark_compute_reference_value():
    r = run("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]',
            "--s", "2", "--prec", "128", "--err", "1e-25")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert abs(float(rep["zeta_prime_0"]) - 0.76719721825131944) < 1e-14
    assert rep["evaluations"][0]["s"]["re"].startswith("2")


def test_stark_compute_builds_continuation_data_once(monkeypatch):
    # the README command: S0, its two gates and zeta(2) all read the one
    # ContinuationData its input keeps
    from starklab.stark import ContinuationData

    builds = []
    build = ContinuationData.build

    def counting_build(cls, *args):
        builds.append(args[2])
        return build(*args)

    monkeypatch.setattr(ContinuationData, "build", classmethod(counting_build))
    r = run("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]',
            "--s", "2", "--prec", "128")
    assert r.exit_code == 0, r.output
    assert len(builds) == 1


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


@pytest.mark.parametrize("beta", ["1e19", "1e400", "inf"])
def test_bc_kms_at_a_huge_or_infinite_beta(beta):
    # kms(beta, 1/2) = 2^(1 - beta) - 1 reads -1 at a huge beta; a beta past
    # the float range is invalid input; each answers within a second, and the
    # alarm stops a Hurwitz cut that loops on a NaN
    def too_slow(*_):
        raise TimeoutError("bc kms --beta %s ran past 10 s" % beta)

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    start = time.perf_counter()
    try:
        r = run("bc", "kms", "--beta", beta, "--gamma", "1/2")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1
    if beta == "1e19":
        assert r.exit_code == 0, (r.output, r.stderr)
        rep = json.loads(r.stdout)
        assert abs(mp.mpf(rep["value_re"]) + 1) < 1e-30 and mp.mpf(rep["value_im"]) == 0
    else:
        assert r.exit_code == 4, (r.output, r.stderr)
        assert r.stdout == ""
        assert r.stderr.startswith("invalid input:") and r.stderr.count("\n") == 1


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


# (arguments, report file stem, CSV header, CSV rows expected from the report)
RENDERINGS = [
    (("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]',
      "--prec", "64", "--err", "1e-12"),
     "stark_compute", ["quantity", "value"], lambda rep: 4),
    (("stark", "conjecture", "--modulus", '{"D": 13, "ideal": [1, 0, 1]}',
      "--prec", "64", "--err", "1e-12"),
     "stark_conjecture", ["class", "representative", "s0", "invariance_residual"],
     lambda rep: len(rep["classes"])),
    (("theta", "check-fe", "--D", "5", "--prec", "96", "--err", "1e-14"),
     "theta_check_fe", ["check", "residual", "tolerance", "pass"], lambda rep: 1),
    (("theta", "check-average", "--D", "2", "--prec", "96", "--err", "1e-12"),
     "theta_check_average", ["check", "residual", "tolerance", "pass"],
     lambda rep: 1),
    (("theta", "check-poisson", "--D", "3", "--t", "0.7", "--prec", "96",
      "--err", "1e-14"),
     "theta_check_poisson", ["check", "residual", "tolerance", "pass"],
     lambda rep: 1),
    (("lattice", "classify", "--lattice", LAT5,
      "--against", '{"D": 5, "l1": ["1", "0"], "l2": ["2", "1"]}'),
     "lattice_classify", ["quantity", "value"], lambda rep: len(rep) - 1),
    (("lattice", "dual", "--lattice", LAT5),
     "lattice_dual", ["basis", "x", "y"], lambda rep: 2),
    (("cyclotomic", "table", "--max-n", "5"),
     "cyclotomic_table", ["m", "n", "lhs", "rhs", "abs_err"],
     lambda rep: len(rep["rows"])),
    (("bc", "kms", "--beta", "2", "--gamma", "1/3"),
     "bc_kms", ["quantity", "value"], lambda rep: 3),
]


@pytest.mark.parametrize("args, stem, header, n_rows", RENDERINGS,
                         ids=[r[1] for r in RENDERINGS])
def test_csv_output(tmp_path, args, stem, header, n_rows):
    # --out writes <group>_<command>.json/.csv with exactly the bytes the
    # command prints without --out
    out = tmp_path / "rep"
    printed = run(*args, "--format", "both")
    written = run(*args, "--out", str(out), "--format", "both")
    assert printed.exit_code == 0 and written.exit_code == 0, printed.stderr
    assert written.stdout == ""
    assert sorted(f.name for f in out.iterdir()) == [stem + ".csv", stem + ".json"]
    json_bytes = (out / (stem + ".json")).read_bytes()
    csv_bytes = (out / (stem + ".csv")).read_bytes()
    assert printed.stdout_bytes == json_bytes + csv_bytes
    rows = list(csv.reader(io.StringIO(csv_bytes.decode(), newline="")))
    assert rows[0] == header
    assert len(rows) - 1 == n_rows(json.loads(json_bytes))


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
    # non-integral or infinite field and HNF entries are rejected, not
    # truncated or left to a traceback
    for args in (
        ("lattice", "dual", "--lattice",
         '{"D": 5.9, "l1": ["1", "0"], "l2": ["1/2", "1/2"]}'),
        ("lattice", "dual", "--lattice",
         '{"D": Infinity, "l1": ["1", "0"], "l2": ["1/2", "1/2"]}'),
        ("stark", "compute", "--ideal", '{"D": 5, "ideal": ["23/2", 3, 1]}',
         "--l0", '["1", "0"]'),
        ("theta", "check-poisson", "--D", "5",
         "--ideal", '{"D": 5, "ideal": [11, "7/2", 1]}'),
        # modules aZ + (b + c w)Z that are not ideals are rejected, not
        # replaced by the ideal they generate
        ("stark", "compute", "--ideal", '{"D": 5, "ideal": [7, 0, 1]}',
         "--l0", '["1", "0"]'),
        ("stark", "compute", "--ideal", '{"D": 5, "ideal": [11, 3, 2]}',
         "--l0", '["1", "0"]'),
        # the literal's field must be the one of --D
        ("theta", "check-poisson", "--D", "3", "--ideal", P11),
    ):
        r = run(*args)
        assert r.exit_code == 4, args
        assert r.stderr.startswith("invalid input:"), r.stderr
    # a non-reduced b that spans the same module is still the same ideal
    assert (cli_mod.parse_ideal_literal('{"D": 5, "ideal": [11, 14, 1]}')
            == cli_mod.parse_ideal_literal(P11))


@pytest.mark.parametrize("args", [
    ("stark", "compute", "--ideal", '{"D": 2, "ideal": [true, 3, 1]}', "--l0", '["1", "0"]'),
    ("stark", "compute", "--ideal", '{"D": 2, "ideal": [7, 3, 1]}', "--l0", "[true, false]"),
    ("lattice", "dual", "--lattice", '{"D": 5, "l1": [true, "0"], "l2": ["1/2", "1/2"]}'),
    ("lattice", "dual", "--lattice", '{"D": true, "l1": ["1", "0"], "l2": ["1/2", "1/2"]}'),
    ("stark", "compute", "--ideal", '{"D": true, "ideal": [7, 3, 1]}', "--l0", '["1", "0"]'),
])
def test_exit_4_on_json_booleans(args):
    # JSON true and false are Python bools, which are ints: an ideal entry,
    # an l0 or lattice coordinate, or a D given as one is invalid input,
    # not read as 1 or 0 ([true, 3, 1] was the unit ideal)
    r = run(*args)
    assert r.exit_code == 4, (r.output, r.stderr)
    assert r.stdout == ""
    assert r.stderr.startswith("invalid input:") and "True" in r.stderr, r.stderr


@pytest.mark.parametrize("args", [
    ("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]', "--s", "1e400"),
    ("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]', "--s", "nan"),
    ("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]', "--err", "inf"),
    ("theta", "check-fe", "--D", "5", "--v", "0.5+1i", "--ideal", P11,
     "--prec", "64", "--err", "inf"),
    ("theta", "check-fe", "--D", "5", "--v", "0.5+1i", "--ideal", P11,
     "--prec", "64", "--err", "1e300"),
    ("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]', "--err", "1"),
])
def test_exit_4_on_non_finite_numbers(args):
    # an overflowing or NaN s, or an error target of 1 or more that would
    # turn every gate off, is invalid input rather than a traceback or a pass
    r = run(*args)
    assert r.exit_code == 4, (r.output, r.stderr)
    assert r.stdout == ""
    assert r.stderr.startswith("invalid input:") and r.stderr.count("\n") == 1, r.stderr


def test_exit_2_on_residual_violation():
    # at 128 bits the table cannot meet the tolerance 100 * 1e-60 derived
    # from --err, so the identity check reports a residual violation
    r = run("cyclotomic", "table", "--max-n", "6", "--prec", "128", "--err", "1e-60")
    assert r.exit_code == 2
    assert r.stderr.startswith("residual violation:")
    assert json.loads(r.stdout)["pass"] is False  # the report is still written


def test_exit_2_on_route_disagreement(monkeypatch):
    # the two zeta'(0) routes of stark compute disagree when the continued
    # zeta is off by 1e-20 s
    import starklab.stark as stark_mod

    continued = stark_mod.partial_zeta_continued
    monkeypatch.setattr(stark_mod, "partial_zeta_continued",
                        lambda inp, s, ctx: continued(inp, s, ctx)
                        + mp.mpf("1e-20") * s)
    r = run("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]')
    assert r.exit_code == 2
    assert r.stderr.startswith("residual violation: zeta'(0) routes differ")


def test_exit_2_on_a_covolume_off_by_1e_20(monkeypatch):
    # both zeta'(0) routes read the one ContinuationData, so a wrong
    # covolume is caught only by the second split point
    import dataclasses

    from starklab.stark import ContinuationData

    build = ContinuationData.build
    monkeypatch.setattr(ContinuationData, "build", classmethod(
        lambda cls, *args: dataclasses.replace(
            data := build(*args), delta=data.delta * (1 + mp.mpf("1e-20")))))
    r = run("stark", "compute", "--ideal", P11, "--l0", '["1", "0"]')
    assert r.exit_code == 2
    assert r.stderr.startswith("residual violation: zeta'(0) at two split points")


@pytest.fixture(scope="module")
def p11_stark_numbers():
    """The Stark numbers `stark conjecture` computes on P11 at its default
    128 bits, in call order: class 0, its invariance partner, and the
    direct S0(R2) of the inversion gate."""
    import starklab.stark as stark_mod

    computed = []
    stark_number = stark_mod.stark_number

    def keep(inp, ctx):
        computed.append(stark_number(inp, ctx))
        return computed[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stark_mod, "stark_number", keep)
        r = run("stark", "conjecture", "--modulus", P11)
    assert r.exit_code == 0, r.stderr
    assert json.loads(r.stdout)["pass"] is True
    assert len(computed) == 3
    return computed


def _conjecture_replaying(monkeypatch, results):
    """stark conjecture on P11 with its Stark numbers replaced, in call
    order, by the given results."""
    import starklab.stark as stark_mod

    replay = iter(results)
    monkeypatch.setattr(stark_mod, "stark_number", lambda inp, ctx: next(replay))
    return run("stark", "conjecture", "--modulus", P11)


@pytest.mark.parametrize("perturbed", [0, 1, 2])
def test_exit_2_on_a_perturbed_stark_number(monkeypatch, p11_stark_numbers, perturbed):
    # each directly computed S0 is gated: 1e-20 on any one of them fails the
    # invariance or the inversion gate at 128 bits
    results = list(p11_stark_numbers)
    res = results[perturbed]
    results[perturbed] = dataclasses.replace(
        res, s0=mp.fadd(res.s0, mp.mpf("1e-20"), exact=True))
    r = _conjecture_replaying(monkeypatch, results)
    assert r.exit_code == 2
    assert r.stderr.startswith("residual violation: conjecture exceeds its tolerance")
    assert json.loads(r.stdout)["pass"] is False


def test_exit_2_when_the_inversion_fails(monkeypatch, p11_stark_numbers):
    # the direct S0(C R2) forced to equal S0(C) instead of 1/S0(C)
    first, partner, _ = p11_stark_numbers
    r = _conjecture_replaying(monkeypatch, [first, partner, first])
    assert r.exit_code == 2
    rep = json.loads(r.stdout)
    assert rep["pass"] is False
    assert float(rep["inversion_residual"]) > 1


def test_stark_conjecture_skips_members_that_fail_condition_i():
    # (7, 4, 1) = conj(p7) is an enumerated member of class 1, and its pair
    # fails condition (i); the classes take their pairs from other members
    r = run("stark", "conjecture", "--modulus", '{"D": 2, "ideal": [7, 3, 1]}',
            "--prec", "64", "--err", "1e-12")
    assert r.exit_code == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["pass"] is True
    assert rep["polynomial_coefficients"][1]["recognized"] == ["-1", "-1"]


def test_exit_3_on_convergence_failure(monkeypatch):
    def boom(*a, **k):
        raise ConvergenceError("synthetic non-convergence")

    monkeypatch.setattr(cli_mod, "functional_equation_Theta", boom)
    r = run("theta", "check-fe", "--D", "5")
    assert r.exit_code == 3


# Address space of the subprocess below: a walk of 5e7 slice rows needs about
# 10 GiB, so a walk that starts fails here with exit 1.
_BOX_TEST_AS = 2 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_BOX_TEST_AS, _BOX_TEST_AS))


_D10 = '{"D": 10, "ideal": [27, 19, 1]}'
_D2 = '{"D": 2, "ideal": [23, 5, 1]}'


@pytest.mark.parametrize("ideal, s", [
    pytest.param(_D10, "1e7", id=_D10),
    pytest.param(_D2, "1e7", id=_D2),
    pytest.param(_D10, "1e6", id=_D10 + " at s=1e6"),
    pytest.param(_D2, "1e6", id=_D2 + " at s=1e6"),
])
def test_exit_3_on_a_slice_box_too_large_to_scan(ideal, s):
    # the evaluation at s = 1e7 takes each side's cutoff about 1e6 times
    # past the Stark number's, and the sub-slice triangles of the first side
    # then hold 5.5e8 (D=10, a unit of 10^13.9) and 2.1e8 lattice points; at
    # s = 1e6 they hold 5.5e7 and 2.1e7, still past the cap, but a walk of
    # that many rows would run out of the address space: the count fails
    # fast, where the walk runs out of memory
    src = pathlib.Path(cli_mod.__file__).resolve().parents[1]
    r = subprocess.run(
        [sys.executable, "-m", "starklab.cli", "stark", "compute", "--ideal", ideal,
         "--l0", '["1", "0"]', "--s", s, "--prec", "64", "--err", "1e-12"],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("bound exceeded: the slice box holds")


@pytest.mark.parametrize("b", [1, 4, 11, 14])
def test_exit_3_on_a_slice_box_past_2_to_the_63(b):
    # D=991, whose fundamental unit is about 10^120: at s = 1e40 the
    # sub-slice triangles hold 3.3e42 lattice points, more rows than len()
    # of a range can count; the count is on Python ints, so these fail fast
    # with exit 3 instead of an OverflowError
    r = run("stark", "compute", "--ideal", '{"D": 991, "ideal": [15, %d, 1]}' % b,
            "--l0", '["1", "0"]', "--s", "1e40", "--prec", "64", "--err", "1e-12")
    assert r.exit_code == 3, r.stderr
    assert r.stderr.startswith("bound exceeded: the slice box holds 3.3e+42")


@pytest.mark.parametrize("D, ideal, code, start", [
    (991, (15, 4, 1), 0, None),
    (991, (15, 11, 1), 3, "convergence failure:"),
    (991, (15, 1, 1), 3, "convergence failure:"),
    (991, (15, 14, 1), 3, "convergence failure:"),
    (661, (11, 10, 1), 3, "convergence failure:"),
    (331, (15, 11, 1), 0, None),
], ids=["D991-15-4-1", "D991-15-11-1", "D991-15-1-1", "D991-15-14-1", "D661-11-10-1",
        "D331-15-11-1"])
def test_conjecture_outcomes_on_large_units(D, ideal, code, start):
    # eps_f+ reaches 10^63 in D=331 and D=661 and 10^120 in D=991; the
    # exact slice anchor keeps each walk near its kept rows, and the
    # recognition reads its box on a reduced basis, so each modulus ends in
    # a pass or a documented exit within seconds; a recognition exit names
    # the bits by which the error target must shrink
    modulus = json.dumps({"D": D, "ideal": list(ideal)})
    r = run("stark", "conjecture", "--modulus", modulus, "--prec", "64", "--err", "1e-12")
    assert r.exit_code == code, r.stderr
    if start is None:
        assert json.loads(r.stdout)["pass"] is True
    else:
        assert r.stderr.startswith(start), r.stderr
        assert re.search(r"algebraic integers lie within .*: an error target \d+ bits "
                         r"smaller separates them\n$", r.stderr), r.stderr


@pytest.mark.parametrize("D, ideal, code", [
    (94, (87, 23, 1), 3), (151, (49, 2, 1), 0), (211, (31, 5, 1), 0),
], ids=["D94-87-23-1", "D151-49-2-1", "D211-31-5-1"])
def test_slice_walks_with_w_past_the_float_range(D, ideal, code):
    # W = eps_f+^2 is about 10^371, 10^401 and 10^352 here, past the largest
    # float64: the cuts take log W from W / 2^e and the flow g^4 = r1 r2 is
    # a product of fourth roots, so both commands end in a pass or a
    # documented exit (the D=94 recognition needs 16 more bits)
    modulus = json.dumps({"D": D, "ideal": list(ideal)})
    r = run("stark", "compute", "--ideal", modulus, "--l0", '["1", "0"]',
            "--prec", "64", "--err", "1e-12")
    assert r.exit_code == 0, r.stderr
    r = run("stark", "conjecture", "--modulus", modulus, "--prec", "64", "--err", "1e-12")
    assert r.exit_code == code, r.stderr
    if code:
        assert r.stderr.startswith("convergence failure:") and "16 bits smaller" in r.stderr
    else:
        assert json.loads(r.stdout)["pass"] is True


@pytest.mark.parametrize("t", ["300", "1000", "1e4"])
def test_check_poisson_refuses_a_float_plan_it_cannot_trust(t):
    # the flowed basis is skewed by about e^t: at t = 300 its float64
    # reduction cancels and the disk would span 3e57 rows, which are counted
    # before the walk; at t = 1000 and 1e4 the generators' float64 squares
    # overflow; each exits 3 at once, where the alarm stops a row loop
    def too_slow(*_):
        raise TimeoutError("theta check-poisson --t %s ran past 20 s" % t)

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    start = time.perf_counter()
    try:
        r = run("theta", "check-poisson", "--D", "5", "--t", t)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 5
    assert r.exit_code == 3, (r.output, r.stderr)
    assert r.stderr.startswith("convergence failure:") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("p, code", [(211, 4), (263, 0)])
def test_stark_compute_with_a_unit_of_large_order_mod_f(p, code):
    # the order of the unit 1 + sqrt(2) modulo (p), up to sign, is 212 for
    # p = 211 and 262 for p = 263: unit_mod_f walks up to N(f), so (211)
    # fails condition (ii) and (263) gives a Stark number
    r = run("stark", "compute", "--ideal", '{"D": 2, "ideal": [%d, 0, %d]}' % (p, p),
            "--l0", '["1", "0"]')
    assert r.exit_code == code, r.stderr
    if code:
        assert r.stderr.startswith("invalid input: condition (ii) failed")
    else:
        assert json.loads(r.stdout)["check"] == "stark-number"


def test_exit_3_on_bound_exceeded(monkeypatch):
    # eps_f+ for (1039) in D=2 is past the largest float64, so the float
    # planning of the Stark number's cutoffs and of the theta tail refuses
    # it before anything overflows (the theta tail would otherwise loop)
    ideal = '{"D": 2, "ideal": [1039, 0, 1039]}'
    for args in (("stark", "compute", "--ideal", ideal, "--l0", '["1", "0"]'),
                 ("theta", "check-fe", "--D", "2", "--ideal", ideal)):
        r = run(*args)
        assert r.exit_code == 3, (r.output, r.stderr)
        assert r.stderr == ("bound exceeded: the slice ratio W = eps^2 is about 10^794, "
                            "past the float range of the planning\n")

    def boom(*a, **k):
        raise BoundExceeded("synthetic ray class overflow")

    # conductor 20011: the continued fraction of l2/l1 does not cycle within
    # the step cap, whether read for the unit or for the equivalence
    lat = '{"D": 2, "l1": ["1", "0"], "l2": ["0", "20011"]}'
    for args in (("--lattice", lat),
                 ("--lattice", '{"D": 2, "l1": ["1", "0"], "l2": ["0", "1"]}',
                  "--against", lat)):
        r = run("lattice", "classify", *args)
        assert r.exit_code == 3, (r.output, r.stderr)
        assert r.stderr == ("bound exceeded: continued fraction did not cycle "
                            "within 10000 steps\n")

    monkeypatch.setattr(cli_mod, "conjecture_check", boom)
    r = run("stark", "conjecture", "--modulus", P11)
    assert r.exit_code == 3
    assert r.stderr == "bound exceeded: synthetic ray class overflow\n"


def test_exit_4_on_usage_errors(tmp_path, monkeypatch):
    # click reports usage errors with 2, the residual-violation code
    r = run("stark", "compute", "--l0", '["1", "0"]')  # missing --ideal
    assert r.exit_code == 4
    assert "Missing option" in r.stderr
    r = run("theta", "check-fe", "--D", "notanint")
    assert r.exit_code == 4
    r = run("stark", "no-such-command")
    assert r.exit_code == 4
    # --out naming an existing file is rejected before any work is done
    target = tmp_path / "report"
    target.write_text("kept")
    monkeypatch.setattr(cli_mod.bcmod, "kms_state", None)  # never reached
    r = run("bc", "kms", "--beta", "2", "--gamma", "1/2", "--out", str(target))
    assert r.exit_code == 4
    assert "is a file" in r.stderr
    assert target.read_text() == "kept"


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_README = GOLDEN / "readme.txt"


def transcript(lines):
    """Each command line as "$ <line>", followed by the stdout it prints;
    asserts that every command exits 0."""
    out = []
    for line in lines:
        r = run(*shlex.split(line)[1:])
        assert r.exit_code == 0, (line, r.output, r.stderr)
        out.append("$ %s\n%s" % (line, r.stdout))
    return "".join(out)


def readme_transcript():
    """The transcript of each command line of the README's usage blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("starklab ")]
    assert len(lines) >= 9
    return transcript(lines)


def _stark_compute_lines():
    """The Stark numbers whose printed bytes a speed-up may not move: the
    benchmark's 16 inputs at the defaults; D=2 p7 and D=5 p11 at 64 bits,
    and at 256 bits with an error target that takes the complex step at ih;
    the conjecture on two moduli at 64 bits."""
    refs = json.loads((pathlib.Path(__file__).resolve().parents[1]
                       / "bench" / "refs.json").read_text())["stark"]
    pairs = {"D2_p7": '{"D": 2, "ideal": [7, 3, 1]}', "D5_p11": P11}
    lines = []
    for key in sorted(refs, key=lambda k: (k.split("/")[0], int(k.split("=")[1]))):
        name, l0 = key.split("/l0=")
        lines.append("starklab stark compute --ideal '%s' --l0 '[\"%s\", \"0\"]'"
                     % (pairs[name], l0))
    for ideal in pairs.values():
        for flags in ("--prec 64 --err 1e-12", "--prec 256 --err 1e-68"):
            lines.append("starklab stark compute --ideal '%s' --l0 '[\"1\", \"0\"]' %s"
                         % (ideal, flags))
    for modulus in (P11, '{"D": 3, "ideal": [5, 0, 5]}'):
        lines.append("starklab stark conjecture --modulus '%s' --prec 64 --err 1e-12"
                     % modulus)
    return lines


# The unit of End L read off the continued-fraction period where it lies far
# out: conductor 503 in Q(sqrt 5), whose unit is eps0^504.
_LATTICE_CLASSIFY_LINES = [
    "starklab lattice classify --lattice "
    "'{\"D\": 5, \"l1\": [\"1\", \"0\"], \"l2\": [\"503/2\", \"503/2\"]}'",
]


@pytest.mark.parametrize("args", [
    ("theta", "check-fe", "--D", "5", "--v", "i", "--prec", "128"),
    ("theta", "check-average", "--D", "5", "--v", "i"),
    ("theta", "check-poisson", "--D", "5", "--t", "0.7"),
])
def test_theta_reports_ignore_the_callers_precision(args):
    # the console script starts at mpmath's 15 digits, while a library
    # caller may have raised them; the report depends on --prec/--err only
    printed = []
    for dps in (15, 50):
        with mp.workdps(dps):
            r = run(*args)
        assert r.exit_code == 0, r.output
        printed.append(r.stdout_bytes)
    assert printed[0] == printed[1]


def test_readme_examples_run():
    # every command of the README's usage block runs, exits 0 and prints
    # the committed bytes; after a deliberate change of output, rewrite
    # the files with `PYTHONPATH=src python tests/test_cli.py`
    assert readme_transcript() == GOLDEN_README.read_text()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.txt")), ids=lambda p: p.name)
def test_golden_transcript_replays(path):
    # each `$ starklab ...` line of a committed transcript exits 0 and
    # prints exactly its block
    text = path.read_text()
    lines = [chunk.split("\n", 1)[0] for chunk in re.split(r"^\$ ", text, flags=re.M)[1:]]
    assert lines and transcript(lines) == text


def test_golden_stark_transcript_holds_its_commands():
    # the committed Stark transcript is the one the command list makes
    text = (GOLDEN / "stark_compute.txt").read_text()
    assert re.findall(r"^\$ (.*)$", text, flags=re.M) == _stark_compute_lines()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    GOLDEN_README.write_text(readme_transcript())
    (GOLDEN / "stark_compute.txt").write_text(transcript(_stark_compute_lines()))
    (GOLDEN / "lattice_classify.txt").write_text(transcript(_LATTICE_CLASSIFY_LINES))
