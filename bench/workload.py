"""One workload process: build the seeded inputs, run the closed loop, check
every op against its reference.

Run by ``run.py`` in a fresh interpreter per workload run; it prints one JSON
line with the per-op times and verdicts.  Usage:

    python3 -B bench/workload.py --workload stark --seed 1 --seconds 38
    python3 -B bench/workload.py --workload stark --seed 1 --setup-only
    python3 -B bench/workload.py --workload stark --seed 1 --rounds 2 \
        --spans .bench_build/spans.jsonl

The seed chooses only what does not change the cost: l0 among the residues
coprime to the modulus, v from fixed lists, which stark pair goes first, and
the order of the ops in each round.  Every round runs the same input mix, so
every seed carries the same work, and a run ends only after a whole round.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import mpmath as mp

import speed

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

WORKLOADS = ("stark", "checks", "classes")

# (name, D, ideal HNF [a, b, c], residues l0 drawn from).  Every residue is
# coprime to the prime modulus, so f = L and the op has the full conductor.
PAIRS = (
    ("D2_p7", 2, (7, 3, 1), tuple(range(1, 7))),
    ("D5_p11", 5, (11, 3, 1), tuple(range(1, 11))),
)
# The cost of a theta check depends on v: the geodesic average takes 0.7 s
# at v = 1/4 + 2i but 1 to 6 s at Im v = 1.  v and -conj(v) sum the same
# terms, so each list is one mirror pair.
FE_V = ("0.5+1j", "-0.5+1j")
AVERAGE_V = ("0.25+2j", "-0.25+2j")
# Both flow times in every Poisson op: t = 0.7 costs up to twice t = 0.
POISSON_T = ("0", "0.7")
KMS_GAMMA = "1/5"
# (name, D, ideal HNF, norm_bound); fields ordered by growing unit.
MODULI = (
    ("D5_p11", 5, (11, 3, 1), 30),
    ("D13_p3", 13, (3, 0, 1), 30),
    ("D29_p5", 29, (5, 1, 1), 30),
    ("D41_p2", 41, (2, 0, 1), 30),
    ("D61_p3", 61, (3, 0, 1), 30),
    ("D46_p5", 46, (5, 1, 1), 30),
    ("D3_5", 3, (5, 0, 5), 60),
)
# Both variants run in every round: narrow costs up to 16 times wide.
VARIANTS = ("narrow", "wide")

# Tolerances of the acceptance criteria the checks come from.
S0_TOL = "1e-25"
FE_TOL = "1e-10"          # criterion 2
AVERAGE_TOL = "1e-8"      # criterion 3
POISSON_TOL = "1e-12"     # criterion 4
CYCLOTOMIC_TOL = "1e-20"  # criterion 1
KMS_TOL = "1e-15"         # criterion 8
KMS_SEPARATION = "1e-3"   # criterion 8
# Results are compared with their references at this many digits, above the
# 38 digits of the 128-bit working precision.
CHECK_DIGITS = 60
# The `stark compute` report prints its numbers through 53-bit floats
# (cli._numstr), so a printed number is right to about 16 digits.  The report
# is gated on its structure exactly, on its numbers to this relative error
# against the values the command computed, and those values on S0_TOL.
PRINTED_REL_TOL = "1e-15"
REPORT_STRUCTURE = ("check", "D", "ideal", "l0", "evaluations")


@dataclass
class Op:
    """One timed call into starklab and the check of its result."""

    key: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def run_op(op: Op):
    """Time one op.  Returns (start_ns, end_ns, ok, result) with the times
    around the call only; an exception, a raising check or a result that
    misses its reference all give ok = False."""
    t0 = time.perf_counter_ns()
    try:
        result = op.call()
    except Exception as exc:  # any failure of the program is a failed op
        return t0, time.perf_counter_ns(), False, "%s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter_ns()
    try:
        with mp.workdps(CHECK_DIGITS):
            ok = bool(op.check(result))
    except Exception:
        ok = False
    return t0, t1, ok, result


def ideal(D: int, hnf):
    """The ideal of Q(sqrt D) with Hermite normal form [a, b, c]."""
    from starklab.quadfield import FieldCtx, QuadIdeal

    F = FieldCtx(D)
    a, b, c = hnf
    return QuadIdeal.from_generators(F, [F.elem(a), F.from_coords(b, c)])


def stark_compute(cli_main, D: int, hnf, l0: int) -> tuple[int, str]:
    """Run `starklab stark compute --ideal L --l0 l0` at the defaults in
    this process; returns (exit code, stdout)."""
    args = ["stark", "compute", "--ideal", json.dumps({"D": D, "ideal": list(hnf)}),
            "--l0", json.dumps([str(l0), "0"])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli_main.main(args=args, prog_name="starklab", standalone_mode=False)
        except SystemExit as exc:
            return exc.code, out.getvalue()
    return 0, out.getvalue()


def stark_report_ok(report: str, computed: dict, ref: dict) -> bool:
    """Gate one `stark compute` op: the printed report against the recorded
    one and the computed StarkResult fields, the computed S0 against the
    reference to S0_TOL, and zeta(0) and the gap between the two routes
    within S0_TOL."""
    got = json.loads(report)
    want = json.loads(ref["report"])

    def printed(name):
        exact = computed[name]
        return abs(mp.mpf(got[name]) - exact) <= mp.mpf(PRINTED_REL_TOL) * abs(exact)

    return (got.keys() == want.keys()
            and all(got[k] == want[k] for k in REPORT_STRUCTURE)
            and all(printed(k) for k in ("s0", "zeta_prime_0", "zeta_0", "route_gap"))
            and abs(computed["s0"] - mp.mpf(ref["s0"])) < mp.mpf(S0_TOL)
            and abs(computed["zeta_0"]) < mp.mpf(S0_TOL)
            and abs(computed["route_gap"]) < mp.mpf(S0_TOL))


def result_text(result) -> str:
    """Canonical text of a result, used to compare traced and untraced runs."""

    def conv(x):
        if isinstance(x, (mp.mpf, mp.mpc)):
            return mp.nstr(x, 60)
        if isinstance(x, (list, tuple)):
            return [conv(y) for y in x]
        if isinstance(x, dict):
            return {k: conv(y) for k, y in x.items()}
        return x

    return json.dumps(conv(result))


# ---------------------------------------------------------------------------
# the ops of each workload
# ---------------------------------------------------------------------------


class Inputs:
    """Inputs built once per process (setup) and the per-round op lists."""

    def __init__(self, workload: str, seed: int, refs: dict):
        from starklab.numerics import PrecisionCtx

        self.workload = workload
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.refs = refs[workload]
        self.ctx = PrecisionCtx(128, 1e-30)
        self.fast = PrecisionCtx(96, 1e-14)
        getattr(self, "_setup_" + workload)()

    def round(self) -> list[Op]:
        ops = getattr(self, "_round_" + self.workload)()
        self.rng.shuffle(ops)
        return ops

    # -- stark: `starklab stark compute` through the CLI entry point --------

    def _setup_stark(self):
        from starklab import cli

        self.cli_main = cli.main
        # One op a round, the pairs in turn from a seeded start: their ops
        # cost about the same, so a run carries the same work whatever the
        # seed and whichever round it ends after.
        self.turn = self.rng.randrange(len(PAIRS))
        # Keep the StarkResult that `stark compute` computed: its report
        # prints S0 to about 16 digits, too coarse for the 1e-25 gate.
        computed = self.stark_results = []
        stark_number = cli.stark_number

        def keep_result(*args, **kwargs):
            result = stark_number(*args, **kwargs)
            computed.append(result)
            return result

        cli.stark_number = keep_result

    def _stark_op(self, name, D, hnf, l0):
        ref = self.refs["%s/l0=%d" % (name, l0)]

        def call():
            self.stark_results.clear()
            code, report = stark_compute(self.cli_main, D, hnf, l0)
            if code != 0:
                raise RuntimeError("starklab exited with code %r" % code)
            return report, dataclasses.asdict(self.stark_results[-1])

        def check(result):
            return stark_report_ok(*result, ref)

        return Op("stark/%s/l0=%d" % (name, l0), call, check)

    def _round_stark(self):
        name, D, hnf, l0s = PAIRS[self.turn % len(PAIRS)]
        self.turn += 1
        return [self._stark_op(name, D, hnf, self.rng.choice(l0s))]

    # -- checks: identity residuals from acceptance criteria 1-4 and 8 -----

    def _setup_checks(self):
        from fractions import Fraction

        from starklab.pseudolattice import Pseudolattice
        from starklab.quadfield import FieldCtx, QuadIdeal, unit_mod_f
        from starklab.theta import RMThetaSpec

        # The nondegenerate spec: D = 5, l0 = 1/11, U generated by the least
        # totally positive unit == 1 mod p11.  For l0 in L the unit-averaged
        # theta vanishes and the identities would read 0 = 0.
        F = FieldCtx(5)
        L = Pseudolattice(F, F.elem(1), F.omega)
        eps = unit_mod_f(F, QuadIdeal.from_generators(F, [11, F.omega + 3])).eps_f_plus

        def spec(v, ctx):
            with ctx.workprec():
                sp = RMThetaSpec(L=L, l0=F.elem(1) / F.elem(11), m0=F.elem(0),
                                 eta=1, epsU=eps, v=mp.mpc(complex(v)))
            sp.validate()
            return sp

        self.fe_specs = {v: spec(v, self.ctx) for v in FE_V}
        self.avg_specs = {v: spec(v, self.fast) for v in AVERAGE_V}
        self.field_lattices = [Pseudolattice(FieldCtx(D), FieldCtx(D).elem(1),
                                             FieldCtx(D).omega) for D in (2, 3, 5)]
        self.kms_gamma = Fraction(KMS_GAMMA)

    def _round_checks(self):
        from fractions import Fraction

        from starklab.bc import kms_state
        from starklab.cyclotomic import CongruenceClass, stark_q
        from starklab.hecke import hecke_lattice
        from starklab.theta import (functional_equation_Theta,
                                    hecke_average_check, poisson_check)

        ctx, fast = self.ctx, self.fast
        v_fe = self.rng.choice(FE_V)
        v_avg = self.rng.choice(AVERAGE_V)

        def fe():
            with ctx.workprec():
                return functional_equation_Theta(self.fe_specs[v_fe], ctx)

        def average():
            with fast.workprec():
                return hecke_average_check(self.avg_specs[v_avg], fast)

        def poisson():
            with ctx.workprec():
                shifts = [(0, 0), (mp.mpf("0.3"), mp.mpf("-0.2"))]
                worst = mp.mpf(0)
                for base in self.field_lattices:
                    for t in POISSON_T:
                        lat = hecke_lattice(base, mp.mpf(t), ctx)
                        for shift in shifts:
                            worst = max(worst, poisson_check(
                                lat, mp.mpc(0, 1), mp.mpc(1), shift=shift, ctx=ctx))
                return worst

        def cyclotomic():
            with ctx.workprec():
                worst = mp.mpf(0)
                for n in range(2, 21):
                    for m in range(1, n):
                        lhs, rhs = stark_q(CongruenceClass(m, n), ctx)
                        worst = max(worst, abs(lhs - rhs))
                return worst

        def kms():
            with ctx.workprec():
                vals = [kms_state(mp.mpf(2), self.kms_gamma, r, ctx)[0]
                        for r in (1, 2, 3, 4)]
                vals.append(kms_state(mp.mpf(2), Fraction(0), 1, ctx)[0])
                return vals

        def under(tol):
            return lambda residual: residual < mp.mpf(tol)

        def kms_check(vals):
            refs = [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in self.refs["kms"]]
            sep = min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
            return (len(vals) == len(refs)
                    and all(abs(a - b) < mp.mpf(KMS_TOL) for a, b in zip(vals, refs))
                    and sep > mp.mpf(KMS_SEPARATION))

        return [
            Op("checks/fe/v=%s" % v_fe, fe, under(FE_TOL)),
            Op("checks/average/v=%s" % v_avg, average, under(AVERAGE_TOL)),
            Op("checks/poisson", poisson, under(POISSON_TOL)),
            Op("checks/cyclotomic", cyclotomic, under(CYCLOTOMIC_TOL)),
            Op("checks/kms", kms, kms_check),
        ]

    # -- classes: exact ray class groups ----------------------------------

    def _setup_classes(self):
        self.moduli = {name: (ideal(D, hnf), norm_bound)
                       for name, D, hnf, norm_bound in MODULI}

    def _round_classes(self):
        from starklab.stark import ray_classes

        ops = []
        for name, _, _, _ in MODULI:
            f, norm_bound = self.moduli[name]
            for variant in VARIANTS:
                ref = self.refs["%s/%s" % (name, variant)]

                def call(f=f, variant=variant, norm_bound=norm_bound):
                    group = ray_classes(f, variant, norm_bound=norm_bound)
                    return [len(group), [list(row) for row in group.table]]

                def check(got, ref=ref):
                    return got == [ref["count"], ref["table"]]

                ops.append(Op("classes/%s/%s" % (name, variant), call, check))
        return ops


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def closed_loop(inputs: Inputs, rounds: int | None = None,
                seconds: float | None = None, tracer=None):
    """Run whole rounds, one op at a time, each op starting when the previous
    one returned: `rounds` rounds, or as many as fit in `seconds` of timed
    wall time going by the mean round so far (at least one).  A speed probe
    runs before the first op and after each op, outside its timing.  Returns
    one record per op."""
    records = []
    done = 0  # whole rounds run so far
    before = speed.probe()
    start = time.perf_counter_ns()
    while True:
        elapsed = (time.perf_counter_ns() - start) / 1e9
        if done == rounds or (seconds is not None and done
                              and elapsed * (done + 1) / done > seconds):
            break
        for op in inputs.round():
            if tracer is not None:
                tracer.op = len(records)
            start_ns, end_ns, ok, result = run_op(op)
            after = speed.probe()
            records.append({
                "key": op.key,
                "round": done,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "probe_s": [before, after],
                "ok": ok,
                "result": result_text(result) if ok else str(result),
            })
            before = after
        done += 1
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--rounds", type=int, default=1, help="run this many rounds")
    group.add_argument("--seconds", type=float,
                       help="run the rounds that fit in this much timed wall time")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first op would start")
    ap.add_argument("--spans", default=None,
                    help="trace the ops and write their spans to this JSONL file")
    args = ap.parse_args(argv)

    tracer = None
    if args.spans:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    import starklab

    refs = json.loads(REFS_PATH.read_text())
    inputs = Inputs(args.workload, args.seed, refs)
    # run.py takes set-up time as launch to this instant, on the same clock
    out = {"starklab_file": starklab.__file__, "ready": time.monotonic()}
    import numpy

    out["versions"] = {"mpmath_backend": mp.libmp.BACKEND,
                       "mpmath": mp.__version__, "numpy": numpy.__version__}
    if not args.setup_only:
        rounds = None if args.seconds is not None else args.rounds
        records = closed_loop(inputs, rounds, args.seconds, tracer)
        out["ops"] = records
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["layers"] = tracer.aggregate(records)
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
