"""Acceptance gate: one test per headline criterion, each printing a single
PASS/FAIL line at the stated tolerance."""

import json
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from click.testing import CliRunner

from starklab.bc import TruncatedRep, check_relations, kms_state
from starklab.cli import main as cli_main
from starklab.cyclotomic import CongruenceClass, stark_q
from starklab.hecke import hecke_lattice
from starklab.numerics import PrecisionCtx
from starklab.pseudolattice import (
    Pseudolattice,
    apply_morphism,
    dual,
    endomorphism_ring,
    is_isomorphic,
)
from starklab.quadfield import FieldCtx, QuadElem, QuadIdeal, fundamental_unit
from starklab.stark import (
    conjecture_check,
    partial_zeta_continued,
    partial_zeta_direct,
    recognize_quadratic,
    stark_number,
    validate_pair,
)
from starklab.theta import (
    RMThetaSpec,
    functional_equation_Theta,
    hecke_average_check,
    poisson_check,
    theta_rm,
)

import conftest
from conftest import SQUAREFREE_50, random_pseudolattice
from test_pseudolattice import brute_force_equivalent, conductor_oracle
from test_theta import maximal_lattice, nondegenerate_spec, standard_spec

mp.mp.dps = 50

CTX = PrecisionCtx(128, 1e-30)
FAST = PrecisionCtx(96, 1e-14)


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = "ACCEPTANCE %d [%s]: %s%s" % (num, tag, desc,
                                         (" (%s)" % detail) if detail else "")
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, "criterion %d failed: %s %s" % (num, desc, detail)


def test_criterion_1_cyclotomic_identity():
    t0 = time.monotonic()
    with CTX.workprec():
        worst = mp.mpf(0)
        for n in range(2, 21):
            for m in range(1, n):
                lhs, rhs = stark_q(CongruenceClass(m, n), CTX)
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    report(1, "exp(-2 zeta') = 4 sin^2 for all 1<=m<n<=20 within 1e-20 in <10s",
           worst < mp.mpf("1e-20") and elapsed < 10,
           "worst gap %s, %.2fs" % (mp.nstr(worst, 3), elapsed))


def test_criterion_2_theta_functional_equation():
    with CTX.workprec():
        worst = mp.mpf(0)
        for D in (2, 3, 5):
            for v in (1j, 2j, 0.5 + 1j):
                spec = standard_spec(D, v)
                worst = max(worst, functional_equation_Theta(spec, CTX))
        # l0 = 1 lies in L above, where Theta^U vanishes identically; the
        # shift l0 = 1/11 gives a nonzero Theta^U, so the identity is tested
        worst_nd, min_theta = mp.mpf(0), mp.inf
        for v in (1j, 2j, 0.5 + 1j):
            spec = nondegenerate_spec(v)
            worst_nd = max(worst_nd, functional_equation_Theta(spec, CTX))
            min_theta = min(min_theta, abs(theta_rm(spec, CTX).value))
    report(2, "unit-averaged theta functional equation residual < 1e-10 "
              "(D in {2,3,5}, v in {i, 2i, 1/2+i}; and D=5, l0=1/11 with "
              "|Theta^U| > 0.5)",
           worst < mp.mpf("1e-10") and worst_nd < mp.mpf("1e-10")
           and min_theta > mp.mpf("0.5"),
           "worst residual %s; l0=1/11: worst residual %s, min |Theta^U| %s"
           % (mp.nstr(worst, 3), mp.nstr(worst_nd, 3), mp.nstr(min_theta, 3)))


def test_criterion_3_hecke_averaging():
    with FAST.workprec():
        worst = mp.mpf(0)
        for D in (2, 3, 5):
            for v in (1j, 2j, 0.5 + 1j):
                spec = standard_spec(D, v, ctx=FAST)
                worst = max(worst, hecke_average_check(spec, FAST))
        worst_nd, min_theta = mp.mpf(0), mp.inf
        for v in (1j, 2j, 0.5 + 1j):
            spec = nondegenerate_spec(v)
            worst_nd = max(worst_nd, hecke_average_check(spec, FAST))
            min_theta = min(min_theta, abs(theta_rm(spec, FAST).value))
    report(3, "Theta^U matches sqrt(-iv) * geodesic average within 1e-8 "
              "(also D=5, l0=1/11 with |Theta^U| > 0.5)",
           worst < mp.mpf("1e-8") and worst_nd < mp.mpf("1e-8")
           and min_theta > mp.mpf("0.5"),
           "worst residual %s; l0=1/11: worst residual %s, min |Theta^U| %s"
           % (mp.nstr(worst, 3), mp.nstr(worst_nd, 3), mp.nstr(min_theta, 3)))


def test_criterion_4_poisson():
    with CTX.workprec():
        worst = mp.mpf(0)
        shifts = [(0, 0), (mp.mpf("0.3"), mp.mpf("-0.2"))]
        for shift in shifts:
            worst = max(worst, poisson_check((mp.mpc(1), mp.mpc(0, 1)),
                                             mp.mpc(0, 1), mp.mpc(1, 2),
                                             shift=shift, ctx=CTX))
        for D in (2, 3, 5):
            for t in (mp.mpf(0), mp.mpf("0.7")):
                lat = hecke_lattice(maximal_lattice(D), t, CTX)
                for shift in shifts:
                    worst = max(worst, poisson_check(lat, mp.mpc(0, 1),
                                                     mp.mpc(1), shift=shift,
                                                     ctx=CTX))
    report(4, "Poisson summation residual < 1e-12 on Z^2 and flowed field "
              "lattices (t in {0, 0.7}), including shifted",
           worst < mp.mpf("1e-12"), "worst residual %s" % mp.nstr(worst, 3))


def _suite_pairs():
    F2 = FieldCtx(2)
    F3 = FieldCtx(3)
    F5 = FieldCtx(5)
    return [
        validate_pair(QuadIdeal.from_generators(F2, [7, F2.omega + 3]), F2.elem(1)),
        validate_pair(QuadIdeal.principal(F3, F3.elem(5)), F3.elem(1)),
        validate_pair(QuadIdeal.from_generators(F5, [11, F5.omega + 3]), F5.elem(1)),
    ]


def test_criterion_5_zeta_routes():
    # zeta(0) is 0 for any continuation data (1/Gamma(0) = 0); zeta(s)/s at
    # s = 2^-40 reads the bracket itself, against the regularized zeta'(0)
    s_small = mp.ldexp(1, -40)
    with CTX.workprec():
        worst_rel = mp.mpf(0)
        worst_z0 = mp.mpf(0)
        worst_slope = mp.mpf(0)
        worst_gap = mp.mpf(0)
        for inp in _suite_pairs():
            for s in (mp.mpf("1.6"), mp.mpf(2), mp.mpf(3)):
                direct = partial_zeta_direct(inp, s, CTX)
                cont = partial_zeta_continued(inp, s, CTX)
                worst_rel = max(worst_rel, abs(direct - cont) / abs(cont))
            worst_z0 = max(worst_z0, abs(partial_zeta_continued(inp, mp.mpf(0), CTX)))
            res = stark_number(inp, CTX)
            slope = partial_zeta_continued(inp, s_small, CTX) / s_small
            worst_slope = max(worst_slope, abs(slope - res.zeta_prime_0))
            worst_gap = max(worst_gap, res.route_gap)
    ok = (worst_rel < mp.mpf("1e-12") and worst_z0 < mp.mpf("1e-8")
          and worst_slope < mp.mpf("1e-10") and worst_gap < mp.mpf("1e-8"))
    report(5, "direct and continued zeta agree to 1e-12 relative at "
              "s in {1.6, 2, 3}; zeta(0) = 0 within 1e-8; zeta(s)/s at "
              "s = 2^-40 matches zeta'(0) within 1e-10; zeta'(0) route "
              "gap < 1e-8",
           ok, "rel %s, z0 %s, slope %s, gap %s" % (mp.nstr(worst_rel, 3),
                                                    mp.nstr(worst_z0, 3),
                                                    mp.nstr(worst_slope, 3),
                                                    mp.nstr(worst_gap, 3)))


def test_criterion_6_class_invariance_and_recognition():
    F = FieldCtx(5)
    f = QuadIdeal.from_generators(F, [11, F.omega + 3])
    rep = conjecture_check(f, CTX)
    worst_inv = mp.mpf(0)
    for c in rep.classes:
        if c.invariance_residual is not None:
            worst_inv = max(worst_inv, mp.mpf(c.invariance_residual))
    ok_inv = worst_inv < mp.mpf("1e-8") and len(rep.classes) >= 2 and rep.passed

    rng = random.Random(61)
    hits = 0
    trials = 100
    with CTX.workprec():
        sq5 = mp.sqrt(5)
        for _ in range(trials):
            a = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
            b = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
            x = (mp.mpf(a.numerator) / a.denominator
                 + mp.mpf(b.numerator) / b.denominator * sq5
                 + mp.mpf("1e-12") * (2 * rng.random() - 1))
            got = recognize_quadratic(x, 5, max_height=10, tol=1e-6, ctx=CTX)
            if got is not None and (got[0], got[1]) == (a, b):
                hits += 1
    report(6, "S0 class invariance < 1e-8 (D=5, modulus of norm 11) and "
              "height-10 recognition recovers 100/100 planted values",
           ok_inv and hits == trials,
           "invariance %s, recognized %d/%d" % (mp.nstr(worst_inv, 3),
                                                hits, trials))


def test_criterion_7_classification_oracles():
    rng = random.Random(62)
    # 100 random pairs (half constructed equivalent) against the brute force
    iso_ok = True
    for i in range(100):
        L1 = random_pseudolattice(rng)
        if i % 2 == 0:
            from test_pseudolattice import _random_unimodular

            L2 = apply_morphism(_random_unimodular(rng), L1)
        else:
            L2 = random_pseudolattice(rng, D=L1.field.D)
        flag, w = is_isomorphic(L1, L2, oriented=True)
        brute = brute_force_equivalent(L1.theta(), L2.theta(), oriented=True)
        if brute is not None and not flag:
            iso_ok = False
        if flag and not (w.det() == 1 and w.mobius(L1.theta()) == L2.theta()):
            iso_ok = False

    # conductor and dual against exact membership oracles
    struct_ok = True
    for _ in range(100):
        L = random_pseudolattice(rng)
        if endomorphism_ring(L).conductor != conductor_oracle(L):
            struct_ok = False
        Ld = dual(L)
        for _ in range(5):
            z = QuadElem(L.field.D,
                         Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                         Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
            expected = ((L.l1.conjugate() * z).trace().denominator == 1
                        and (L.l2.conjugate() * z).trace().denominator == 1)
            if Ld.contains(z) != expected:
                struct_ok = False
    report(7, "is_isomorphic matches brute-force GL(2,Z) search on 100 pairs; "
              "conductor and dual match membership oracles on 100 "
              "pseudolattices (D <= 50)",
           iso_ok and struct_ok)


def test_criterion_8_kms():
    with CTX.workprec():
        v_half, _ = kms_state(mp.mpf(2), Fraction(1, 2), 1, CTX)
        ok_half = abs(v_half - mp.mpf(-1) / 2) < mp.mpf("1e-15")
        v_zero, _ = kms_state(mp.mpf(2), Fraction(0), 1, CTX)
        ok_zero = abs(v_zero - 1) < mp.mpf("1e-15")

        rels = check_relations(TruncatedRep(N=5000), [1, 2, 3, 5, 12, 100], CTX)
        ok_rel = all(wst <= 8 * mp.mpf(2) ** -128 for wst in rels.values())

        vals = [kms_state(mp.mpf(2), Fraction(1, 5), r, CTX)[0]
                for r in (1, 2, 3, 4)]
        vals.append(kms_state(mp.mpf(2), Fraction(0), 1, CTX)[0])
        sep = min(abs(vals[i] - vals[j])
                  for i in range(len(vals)) for j in range(i + 1, len(vals)))
        ok_sep = sep > mp.mpf("1e-3")
    report(8, "kms(2, 1/2) = -1/2 and kms(2, 0) = 1 within 1e-15; relations "
              "<= 8 ulp at 128 bits; the five twists of gamma = 1/5 at "
              "beta = 2 are pairwise separated by > 1e-3",
           ok_half and ok_zero and ok_rel and ok_sep,
           "separation %s" % mp.nstr(sep, 3))


def test_criterion_9_cli_determinism():
    runner = CliRunner()
    commands = [
        ["stark", "compute", "--ideal", '{"D": 5, "ideal": [11, 3, 1]}',
         "--l0", '["1", "0"]', "--s", "2", "--prec", "128", "--err", "1e-25"],
        ["theta", "check-fe", "--D", "3", "--v", "0.5+1i",
         "--prec", "96", "--err", "1e-14"],
        ["theta", "check-poisson", "--D", "2", "--t", "0.7"],
        ["cyclotomic", "table", "--max-n", "10"],
        ["bc", "kms", "--beta", "2", "--gamma", "2/7", "--twist", "3"],
        ["lattice", "classify", "--lattice",
         '{"D": 5, "l1": ["1", "0"], "l2": ["1/2", "1/2"]}'],
    ]
    ok = True
    for args in commands:
        a = runner.invoke(cli_main, args)
        b = runner.invoke(cli_main, args)
        if a.exit_code != 0 or b.exit_code != 0:
            ok = False
            continue
        json.loads(a.output)  # must be valid JSON
        if a.output.encode() != b.output.encode():
            ok = False
    report(9, "repeated CLI runs produce byte-identical JSON reports", ok)
