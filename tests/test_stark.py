import dataclasses
import gc
import json
import math
import os
import pathlib
import random
import re
import resource
import signal
import subprocess
import sys
import time
import weakref
from fractions import Fraction

import mpmath as mp
import pytest

from starklab.numerics import BoundExceeded, ConvergenceError, PrecisionCtx, mpf_from_fraction
from starklab.pseudolattice import coset_slice_reps, dual
from starklab.quadfield import FieldCtx, QuadElem, QuadIdeal, fundamental_unit, unit_mod_f
import starklab.stark as stark_mod
from starklab.stark import (
    ConditionFailed,
    ContinuationData,
    RouteDisagreement,
    StarkInput,
    StarkResult,
    conjecture_check,
    pair_for_class,
    partial_zeta_continued,
    partial_zeta_direct,
    ray_classes,
    recognize_integer,
    recognize_quadratic,
    stark_number,
    validate_pair,
)
from oracles import (
    numeric_derivative,
    partial_zeta_direct_reference,
    ray_classes_reference,
    ray_equivalent_reference,
    recognize_integer_reference,
    stark_number_eager_reference,
)
from sweep import SETS as SWEEP_SETS

mp.mp.dps = 50

CTX = PrecisionCtx(128, 1e-30)


def suite_pairs():
    """The three standard nondegenerate pairs: (D, modulus, l0)."""
    out = []
    F2 = FieldCtx(2)
    out.append(validate_pair(QuadIdeal.from_generators(F2, [7, F2.omega + 3]), F2.elem(1)))
    F3 = FieldCtx(3)
    out.append(validate_pair(QuadIdeal.principal(F3, F3.elem(5)), F3.elem(1)))
    F5 = FieldCtx(5)
    out.append(validate_pair(QuadIdeal.from_generators(F5, [11, F5.omega + 3]), F5.elem(1)))
    return out


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_validate_pair_derived_ideals_against_gcd_oracle():
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        D = rng.choice([2, 3, 5, 13])
        F = FieldCtx(D)
        g = F.from_coords(rng.randint(-6, 6), rng.randint(-6, 6))
        if g.is_zero():
            continue
        L = QuadIdeal.from_generators(F, [rng.randint(1, 12), g])
        l0 = F.from_coords(rng.randint(-8, 8), rng.randint(-8, 8))
        if l0.is_zero():
            continue
        try:
            inp = validate_pair(L, l0)
        except ConditionFailed:
            continue
        checked += 1
        # the pair is (L/d, l0/d) for the largest rational integer d
        # dividing both: no integer > 1 divides inp.L and inp.l0 both
        d = l0 / inp.l0
        assert d.y == 0 and d.x.denominator == 1 and d.x >= 1
        assert (inp.L * int(d.x)).hnf() == L.hnf()
        assert math.gcd(*inp.L.hnf(), *map(int, F.coords(inp.l0))) == 1
        # b is the largest common divisor: b*f = L and b*a0 = (l0)
        assert (inp.b * inp.f).hnf() == inp.L.hnf()
        assert (inp.b * inp.a0).hnf() == QuadIdeal.principal(F, inp.l0).hnf()
        assert inp.b.coprime(inp.f) and inp.a0.coprime(inp.f)


def test_validate_pair_l0_in_L_gives_trivial_conductor():
    F = FieldCtx(5)
    L = QuadIdeal.principal(F, F.elem(3))
    inp = validate_pair(L, F.elem(6))
    assert inp.f.is_unit_ideal()
    # symmetric unit group: the zeta function vanishes identically
    with CTX.workprec():
        assert abs(partial_zeta_continued(inp, mp.mpf(2), CTX)) < 1e-25
        r = stark_number(inp, CTX)
        assert abs(r.s0 - 1) < 1e-25


def test_validate_pair_rejects_bad_inputs():
    F = FieldCtx(5)
    L = QuadIdeal.from_generators(F, [11, F.omega + 3])
    with pytest.raises(ConditionFailed):
        validate_pair(L, F.elem(0))
    with pytest.raises(ConditionFailed):
        validate_pair(L, QuadElem(5, Fraction(1, 2)))
    with pytest.raises(ConditionFailed):
        # l0 = 11 shares the prime 11 with f = p11
        validate_pair(L * L, F.elem(11))


def _scaled_pair():
    """D=5 p11 with l0 = 1, both scaled by d = 6."""
    F = FieldCtx(5)
    L = QuadIdeal.from_generators(F, [11, F.omega + 3])
    return validate_pair(QuadIdeal.principal(F, F.elem(6)) * L, F.elem(6))


def test_reduced_pair_is_equivalent():
    # validate_pair divides out d = 6; the pair scaled by 6, with b = 6 b
    # and the same a0, f and units, has the same partial zeta
    red = _scaled_pair()
    assert red.L.hnf() == (11, 3, 1) and red.l0 == red.field.elem(1)
    scaled = StarkInput(L=red.L * 6, l0=red.l0 * red.field.elem(6), b=red.b * 6,
                        a0=red.a0, f=red.f, unit=red.unit)
    for s in (2, 3):
        with CTX.workprec():
            a = partial_zeta_continued(scaled, mp.mpf(s), CTX)
            b = partial_zeta_continued(red, mp.mpf(s), CTX)
            assert abs(a - b) < 1e-28, (s, a - b)


# ---------------------------------------------------------------------------
# dual-route agreement (analytic continuation vs direct summation)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", ["1.6", "2", "3"])
def test_route_agreement_on_suite(s):
    with CTX.workprec():
        sv = mp.mpf(s)
        for inp in suite_pairs():
            direct = partial_zeta_direct(inp, sv, CTX)
            cont = partial_zeta_continued(inp, sv, CTX)
            rel = abs(direct - cont) / max(abs(cont), mp.mpf(1))
            assert rel < 1e-12, (inp.L.hnf(), s, rel)


def test_route_agreement_complex_s():
    with CTX.workprec():
        inp = suite_pairs()[2]
        s = mp.mpc(2, 1)
        direct = partial_zeta_direct(inp, s, CTX)
        cont = partial_zeta_continued(inp, s, CTX)
        assert abs(direct - cont) / abs(cont) < 1e-11


def test_direct_sum_rows_equal_the_quadelem_reference(monkeypatch):
    # signs by _sign_surd and norms by integer division give the same
    # floats as QuadElem conjugates and float(Fraction), so the same sum
    monkeypatch.setattr(stark_mod, "_DIRECT_MAX_NORM", 20_000)
    for inp in suite_pairs():
        for s in (mp.mpf("1.6"), mp.mpf(2), mp.mpf(3), mp.mpc(2, 1)):
            got = partial_zeta_direct(inp, s, CTX)
            ref = partial_zeta_direct_reference(inp, s, CTX, 20_000)
            assert got == ref, (inp.L.hnf(), s, got - ref)


def test_zeta_vanishes_at_0():
    # zeta(0) is 1/Gamma(0) = 0 times the bracket, whatever the continuation
    # data; zeta(s)/s at s = 2^-40 reads the bracket, and must match the
    # regularized zeta'(0) up to s zeta''(0)/2
    s = mp.ldexp(1, -40)
    with CTX.workprec():
        for inp in suite_pairs():
            assert abs(partial_zeta_continued(inp, mp.mpf(0), CTX)) < 1e-8
            zp = stark_number(inp, CTX).zeta_prime_0
            slope = partial_zeta_continued(inp, s, CTX) / s
            assert abs(slope - zp) < 1e-10, (inp.L.hnf(), slope - zp)


def test_direct_sum_coset_shift_independence():
    # replacing l0 by l0 + l for l in L keeps the coset, so the orbit sum
    # zeta / sgn(l0') is unchanged (the shifts below keep b = (1) as well)
    F = FieldCtx(5)
    L = QuadIdeal.from_generators(F, [11, F.omega + 3])
    inp1 = validate_pair(L, F.elem(1))
    inp2 = validate_pair(L, F.elem(1) + F.elem(11))
    inp3 = validate_pair(L, F.elem(1) - (F.omega + 3))
    assert inp2.b.is_unit_ideal() and inp3.b.is_unit_ideal()
    with CTX.workprec():
        base = partial_zeta_direct(inp1, mp.mpf(2), CTX) / inp1.sign_l0_conj
        for other in (inp2, inp3):
            val = partial_zeta_direct(other, mp.mpf(2), CTX) / other.sign_l0_conj
            assert abs(val - base) < 1e-11


# ---------------------------------------------------------------------------
# Stark numbers
# ---------------------------------------------------------------------------


def test_stark_number_reference_value():
    F = FieldCtx(5)
    inp = validate_pair(QuadIdeal.from_generators(F, [11, F.omega + 3]), F.elem(1))
    r = stark_number(inp, CTX)
    with CTX.workprec():
        assert abs(r.zeta_prime_0 - mp.mpf("0.76719721825131944")) < 1e-15
        assert abs(r.s0 - mp.exp(r.zeta_prime_0)) < 1e-25
        assert r.route_gap < 1e-20
        assert r.zeta_0 < 1e-8


def _reference_fold(inp, ctx, max_norm):
    """ContinuationData folded from QuadElem representatives with Fraction
    norms and traces: the representation-level definition that the
    integer-row fold in ContinuationData.build must reproduce bit for bit."""
    with ctx.workprec():
        W = inp.unit.eps_f_plus ** 2
        lat = inp.lattice
        reps1 = coset_slice_reps(lat, inp.l0, W, max_norm)
        reps2 = coset_slice_reps(dual(lat), lat.field.elem(0), W, max_norm)
        two_pi = 2 * mp.pi
        mults = {}
        for xi, _, _, n in reps1:
            mults[n] = mults.get(n, 0) + xi.conjugate().sign()
        primal = tuple((two_pi * mpf_from_fraction(n), m)
                       for n, m in sorted(mults.items()) if m != 0)
        l0c = inp.l0.conjugate()
        terms = {}
        for xi, _, _, n in reps2:
            tr = (xi * l0c).trace()
            terms.setdefault(n, []).append((xi.sign(), tr - (tr // 1)))
        dual_pairs = []
        for n, entries in sorted(terms.items()):
            coeff = mp.mpc(mp.fsum(
                (sg * mp.expjpi(2 * mpf_from_fraction(e)) for sg, e in entries),
                absolute=False))
            if coeff != 0:
                dual_pairs.append((two_pi * mpf_from_fraction(n), coeff))
        delta = mpf_from_fraction(lat.delta_exact()) * mp.sqrt(lat.field.D)
        return primal, tuple(dual_pairs), delta


def _bits(v):
    """The exact mpf tuples of a real or complex mpmath number."""
    return (v._mpf_,) if isinstance(v, mp.mpf) else v._mpc_


def test_continuation_data_matches_reference_fold():
    # D=2 p7, D=3 (5) and D=5 p11 with l0 = 1, then l0 with a sqrt(D) part:
    # 1 + sqrt 2 for p7, and (5 + sqrt 5)/2 for p11 (halves, ld = 2)
    F2, F5 = FieldCtx(2), FieldCtx(5)
    pairs = suite_pairs() + [
        validate_pair(QuadIdeal.from_generators(F2, [7, F2.omega + 3]), F2.omega + 1),
        validate_pair(QuadIdeal.from_generators(F5, [11, F5.omega + 3]), F5.omega + 2),
    ]
    for inp in pairs:
        # one split point at v = i, both sides to |N| <= 15
        data = ContinuationData.build(inp, CTX, ((1, Fraction(15), Fraction(15)),))
        primal, dual_pairs, delta = _reference_fold(inp, CTX, Fraction(15))
        assert data.primal and data.dual
        assert len(data.primal) == len(primal) and len(data.dual) == len(dual_pairs)
        # at t = 1 the split's arguments x t and x/t are the rows' x
        point = data.splits[0]
        assert len(point.primal) == len(primal) and len(point.dual) == len(dual_pairs)
        for m, x, (rx, rm) in zip(data.primal, point.primal, primal):
            assert type(m) is int and m == rm and _bits(x) == _bits(rx)
        for (x, c), y, (rx, rc) in zip(data.dual, point.dual, dual_pairs):
            assert _bits(x) == _bits(y) == _bits(rx) and _bits(c) == _bits(rc)
        assert _bits(data.delta) == _bits(delta)


def test_stark_number_builds_continuation_data_once(monkeypatch):
    # one enumeration and fold serves the regularized route at both split
    # points and the complex step at ih/2; the route gap meets 100 times the
    # error target, so the step at ih, which could only widen the
    # allowance, is not taken, and zeta(0) is not evaluated
    builds, evals = [], []
    build, continued = ContinuationData.build, stark_mod.partial_zeta_continued

    def counting_build(cls, *args):
        builds.append(args[2])
        return build(*args)

    def counting_continued(*args, **kwargs):
        evals.append(args[1])
        return continued(*args, **kwargs)

    monkeypatch.setattr(ContinuationData, "build", classmethod(counting_build))
    monkeypatch.setattr(stark_mod, "partial_zeta_continued", counting_continued)
    F = FieldCtx(2)
    inp = validate_pair(QuadIdeal.from_generators(F, [7, F.omega + 3]), F.elem(1))
    r = stark_number(inp, CTX)
    assert r.route_gap < 1e-20
    assert len(builds) == 1
    assert len(evals) == 1


def test_inputs_are_freed_without_the_garbage_collector():
    # an input holds no reference back to itself, so reference counting
    # alone frees it and its data
    F = FieldCtx(2)
    made = (lambda: validate_pair(QuadIdeal.from_generators(F, [7, F.omega + 3]),
                                  F.elem(1)),
            _scaled_pair)
    gc.disable()
    try:
        for make in made:
            inp = make()
            stark_number(inp, CTX)
            ref = weakref.ref(inp)
            del inp
            assert ref() is None
    finally:
        gc.enable()


def test_complex_step_matches_the_five_point_stencil():
    # the 5-point central difference of the real continued zeta at
    # h = 10^-max(4, dps/5), halved once, is the reference derivative
    step = stark_mod._complex_step(CTX)
    for inp in suite_pairs():
        with CTX.workprec():
            value = stark_mod._zeta_prime_0_complex_step(inp, step / 2, CTX)
            change = abs(stark_mod._zeta_prime_0_complex_step(inp, step, CTX) - value)
            h = mp.mpf(10) ** (-max(4, CTX.dps // 5))
            ref, ref_err, stable = numeric_derivative(
                lambda t: partial_zeta_continued(inp, t, CTX).real,
                mp.mpf(0), h, CTX)
            assert stable and ref_err < 1e-28
            assert abs(value - ref) < 1e-28, (inp.L.hnf(), value - ref)
            assert change < 1e-28


def _stark_outcome(compute, inp, ctx):
    """compute's StarkResult, or the type and message of what it raised."""
    try:
        return compute(inp, ctx)
    except (RouteDisagreement, ConvergenceError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bits, err", [(64, 1e-12), (128, 1e-30), (256, 1e-68)])
def test_lazy_allowance_gives_the_eager_verdict(monkeypatch, bits, err):
    # the step at ih only widens the allowance 100 max(tol, change), so
    # taking it only past 100 tol gives the eager rule's result or error;
    # at 256 bits the route gap (about 6e-62) exceeds 100 tol = 1e-66, and
    # the step at ih runs and decides
    ctx = PrecisionCtx(bits, err)
    evals = []
    continued = stark_mod.partial_zeta_continued

    def counting_continued(*args, **kwargs):
        evals.append(args[1])
        return continued(*args, **kwargs)

    pairs = suite_pairs()
    for inp in (pairs[0], pairs[2]):
        eager = _stark_outcome(stark_number_eager_reference, inp, ctx)
        evals.clear()
        with monkeypatch.context() as patch:
            patch.setattr(stark_mod, "partial_zeta_continued", counting_continued)
            lazy = _stark_outcome(stark_number, inp, ctx)
        assert lazy == eager, (inp.L.hnf(), lazy, eager)
        assert isinstance(lazy, StarkResult)
        assert len(evals) == (2 if bits == 256 else 1), (inp.L.hnf(), evals)


def test_route_disagreement_fires_on_a_skewed_continuation(monkeypatch):
    # a continued zeta off by 1e-20 s moves the complex-step zeta'(0) by
    # 1e-20, far above what the two routes may differ by at 128 bits
    continued = stark_mod.partial_zeta_continued
    monkeypatch.setattr(stark_mod, "partial_zeta_continued",
                        lambda inp, s, ctx: continued(inp, s, ctx)
                        + mp.mpf("1e-20") * s)
    with pytest.raises(RouteDisagreement, match="routes differ"):
        stark_number(suite_pairs()[2], CTX)


def _replace_dual(data, k, coeff):
    x, c = data.dual[k]
    return dataclasses.replace(data, dual=data.dual[:k] + ((x, coeff(c)),) + data.dual[k + 1:])


# Defects of the continuation data that both zeta'(0) routes read alike.
# The dual coefficients are 2i sum sgn(xi) sin(2 pi tr(xi l0')) over the
# pairs +-xi, so a conjugated one is a negated one up to rounding: the two
# are applied to different rows.
CONTINUATION_DEFECTS = {
    "delta": lambda d: dataclasses.replace(d, delta=d.delta * (1 + mp.mpf("1e-20"))),
    "conjugated": lambda d: _replace_dual(d, 0, mp.conj),
    "negated": lambda d: _replace_dual(d, 1, lambda c: -c),
}


@pytest.mark.parametrize("defect", sorted(CONTINUATION_DEFECTS))
def test_second_split_point_fires_on_defective_continuation_data(monkeypatch, defect):
    # a covolume off by 1e-20 or one dual coefficient conjugated or negated
    # leaves the routes' gap at rounding level, but zeta'(0) then depends
    # on the split point
    build = ContinuationData.build
    monkeypatch.setattr(ContinuationData, "build", classmethod(
        lambda cls, *args: CONTINUATION_DEFECTS[defect](build(*args))))
    with pytest.raises(RouteDisagreement, match="two split points"):
        stark_number(suite_pairs()[2], CTX)


def _pair_209_80():
    # a partner pair of D=5 p11 on the skewed lattice (209, 80, 1), l0 = 19
    F = FieldCtx(5)
    return validate_pair(QuadIdeal.from_generators(F, [209, F.omega + 80]), F.elem(19))


@pytest.mark.parametrize("make", [lambda: suite_pairs()[0], lambda: suite_pairs()[2],
                                  _pair_209_80], ids=["D2-p7", "D5-p11", "D5-209-80"])
def test_each_side_is_cut_off_below_the_error_target(monkeypatch, make):
    # the split point balances the norms the main split sums, and 1.5 times
    # either side's cutoff moves zeta'(0) by less than the error target
    inp = make()
    value = stark_number(inp, CTX).zeta_prime_0
    data = inp._continuation[1]
    primal, dual = (len(args) for args in data.splits[0][2:])
    assert primal <= 3 * dual and dual <= 3 * primal
    build = ContinuationData.build
    for side, k, (fp, fd) in (("primal", 2, (Fraction(3, 2), 1)),
                              ("dual", 3, (1, Fraction(3, 2)))):
        monkeypatch.setattr(ContinuationData, "build", classmethod(
            lambda cls, inp, ctx, cutoffs, fp=fp, fd=fd: build(
                inp, ctx, tuple((t, p * fp, d * fd) for t, p, d in cutoffs))))
        wider = make()
        wide = stark_number(wider, CTX).zeta_prime_0
        # the main split sums more rows of the widened side
        wide_data = wider._continuation[1]
        assert len(wide_data.splits[0][k]) > len(data.splits[0][k]), side
        with CTX.workprec():
            assert abs(wide - value) < CTX.target_abs_err, side


def test_conjugated_dual_character_fails_the_fe_and_the_direct_sum(monkeypatch):
    # the continuation's dual side is RMThetaSpec.dual_spec, so a character
    # conjugated there (m0 = +l0 instead of -l0) breaks both the theta
    # functional equation and the agreement of the continued zeta with the
    # direct sum
    from starklab.pseudolattice import Pseudolattice
    from starklab.quadfield import unit_mod_f
    from starklab.theta import RMThetaSpec, functional_equation_Theta

    dual_spec = RMThetaSpec.dual_spec

    def conjugated(spec):
        other = dual_spec(spec)
        other.m0 = spec.l0
        return other

    monkeypatch.setattr(RMThetaSpec, "dual_spec", conjugated)
    # the nondegenerate spec of the benchmark's checks: D = 5, l0 = 1/11,
    # U generated by the least totally positive unit == 1 mod p11
    F = FieldCtx(5)
    p11 = QuadIdeal.from_generators(F, [11, F.omega + 3])
    spec = RMThetaSpec(L=Pseudolattice(F, F.elem(1), F.omega), l0=F.elem(1) / F.elem(11),
                       m0=F.elem(0), eta=1, epsU=unit_mod_f(F, p11).eps_f_plus,
                       v=mp.mpc("0.5", "1"))
    assert functional_equation_Theta(spec, CTX) > 1e-10
    inp = validate_pair(p11, F.elem(1))
    direct = partial_zeta_direct(inp, 2, CTX)
    assert abs(partial_zeta_continued(inp, 2, CTX) - direct) > 1e-6 * abs(direct)


def test_stark_number_class_invariance_small():
    # two ideals in the same narrow ray class mod p11 share S0
    F = FieldCtx(5)
    f = QuadIdeal.from_generators(F, [11, F.omega + 3])
    group = ray_classes(f, variant="narrow", norm_bound=25)
    for a in group.reps:
        others = [
            i for i in _coprime_pool(F, f, 25)
            if group.class_index(i) == group.class_index(a) and i.hnf() != a.hnf()
        ]
        if not others:
            continue
        s_a = stark_number(pair_for_class(f, a), CTX).s0
        s_b = stark_number(pair_for_class(f, others[0]), CTX).s0
        assert abs(s_a - s_b) < 1e-8
        break


def _coprime_pool(F, f, bound):
    from starklab.stark import _enumerate_coprime_ideals

    return _enumerate_coprime_ideals(F, f, bound)


# ---------------------------------------------------------------------------
# ray class groups
# ---------------------------------------------------------------------------


def test_narrow_ray_group_mod_p11():
    F = FieldCtx(5)
    f = QuadIdeal.from_generators(F, [11, F.omega + 3])
    g = ray_classes(f, variant="narrow", norm_bound=25)
    assert len(g) == 2
    # table is a group table: identity row/column, each row a permutation
    n = len(g)
    for i in range(n):
        assert sorted(g.table[i]) == list(range(n))
        assert sorted(g.table[j][i] for j in range(n)) == list(range(n))
    assert g.table[0] == tuple(range(n))  # class 0 is the principal identity


# the moduli of the benchmark's classes workload: (name, D, HNF, norm bound)
BENCH_MODULI = (
    ("D5_p11", 5, (11, 3, 1), 30),
    ("D13_p3", 13, (3, 0, 1), 30),
    ("D29_p5", 29, (5, 1, 1), 30),
    ("D41_p2", 41, (2, 0, 1), 30),
    ("D61_p3", 61, (3, 0, 1), 30),
    ("D46_p5", 46, (5, 1, 1), 30),
    ("D3_5", 3, (5, 0, 5), 60),
)


@pytest.mark.parametrize("variant", ["narrow", "wide"])
def test_ray_classes_match_the_benchmark_references(variant):
    refs = json.loads((pathlib.Path(__file__).resolve().parents[1]
                       / "bench" / "refs.json").read_text())["classes"]
    for name, D, (a, b, c), norm_bound in BENCH_MODULI:
        F = FieldCtx(D)
        f = QuadIdeal.from_generators(F, [a, F.from_coords(b, c)])
        group = ray_classes(f, variant, norm_bound=norm_bound)
        ref = refs["%s/%s" % (name, variant)]
        assert len(group) == ref["count"], name
        assert [list(row) for row in group.table] == ref["table"], name
        # the members partition the coprime ideals up to the bound, each
        # found in its class by class_index, which reads the group's units
        members = [I for m in group.members for I in m]
        assert sorted(I.hnf() for I in members) == sorted(
            I.hnf() for I in _coprime_pool(F, f, norm_bound)), name
        for k, m in enumerate(group.members):
            for I in m:
                assert group.class_index(I) == k
        assert (group.members, group.table) == ray_classes_reference(
            f, variant, norm_bound), name


def test_ray_classes_double_the_bound_until_the_group_closes():
    # D=3 (5) narrow escapes its classes at the default bound of 30 and
    # closes at 60 with the benchmark's 16-class table
    refs = json.loads((pathlib.Path(__file__).resolve().parents[1]
                       / "bench" / "refs.json").read_text())["classes"]
    F = FieldCtx(3)
    f = QuadIdeal(F, 5, 0, 5)
    group = ray_classes(f, "narrow")
    assert len(group) == refs["D3_5/narrow"]["count"] == 16
    assert [list(row) for row in group.table] == refs["D3_5/narrow"]["table"]
    assert group.members == ray_classes(f, "narrow", norm_bound=60).members


def test_ray_classes_raise_past_the_bound_cap(monkeypatch):
    monkeypatch.setattr(stark_mod, "_MAX_NORM_BOUND", 30)
    F = FieldCtx(3)
    with pytest.raises(BoundExceeded, match="escapes the enumerated classes"):
        ray_classes(QuadIdeal(F, 5, 0, 5), "narrow")


def _outcome(build):
    try:
        return build()
    except (ArithmeticError, RuntimeError, ValueError) as e:
        return type(e)


@pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 10, 13, 15, 26, 79, 82])
def test_ray_classes_match_the_pairwise_scan(D):
    # every modulus of norm <= 30, both variants, from the default bound:
    # the same members and table as testing each ideal against every
    # representative, or the same exception type; D = 10 has moduli whose
    # narrow classes tell f from f (N J)_f, and D = 10, 15, 26, 79 and 82
    # have 2, 2, 2, 3 and 4 ordinary classes, so their table products are
    # keyed through products of bases J_a J_b = delta J_c with J_c != (1)
    F = FieldCtx(D)
    for f in _coprime_pool(F, QuadIdeal.unit_ideal(F), 30):
        for variant in ("narrow", "wide"):
            got = _outcome(lambda: ray_classes(f, variant))
            if not isinstance(got, type):
                got = (got.members, got.table)
            assert got == _outcome(lambda: ray_classes_reference(f, variant)), (f, variant)


def test_ray_equivalent_matches_the_pairwise_reference():
    # two ideals share a class_index exactly when the pairwise test finds
    # A B^-1 = (alpha) with alpha == 1 mod* f (and totally positive, narrow)
    for D, (a, b, c) in ((10, (6, 2, 1)), (2, (7, 3, 1)), (79, (5, 2, 1))):
        F = FieldCtx(D)
        f = QuadIdeal(F, a, b, c)
        units = unit_mod_f(F, f)
        pool = _coprime_pool(F, f, 24)
        for variant in ("narrow", "wide"):
            group = ray_classes(f, variant, norm_bound=24)
            assert group.units == units
            for A in pool:
                for B in pool[:8]:
                    assert (group.class_index(A) == group.class_index(B)) == \
                        ray_equivalent_reference(A, B, f, variant, units), (A, B, variant)


def test_ray_classes_make_one_principal_test_per_ideal_and_base_product(monkeypatch):
    # D = 3 has one ordinary class, so each ideal after (1) takes one
    # principal test, the first ideal none, and the one product of bases,
    # (1)(1), one; the 136 table products are keyed from their factors'
    # generators and take none
    calls = []
    real = QuadIdeal.generator_coords
    monkeypatch.setattr(QuadIdeal, "generator_coords",
                        lambda self: calls.append(self) or real(self))
    F = FieldCtx(3)
    f = QuadIdeal(F, 5, 0, 5)
    group = ray_classes(f, "narrow", norm_bound=60)
    k = len(group)
    assert k == 16
    assert len(calls) <= len(_coprime_pool(F, f, 60)) + 1


@pytest.mark.parametrize("D, h, h_plus", [
    (2, 1, 1), (3, 1, 2), (5, 1, 1), (6, 1, 2), (7, 1, 2),
    (10, 2, 2), (15, 2, 4), (26, 2, 2), (79, 3, 6), (82, 4, 4),
])
def test_class_numbers_wide_and_narrow(D, h, h_plus):
    # published class numbers h and narrow class numbers h+; each wide
    # class beyond the first needs generator_coords to return None
    one = QuadIdeal.unit_ideal(FieldCtx(D))
    assert len(ray_classes(one, "wide", norm_bound=30)) == h
    assert len(ray_classes(one, "narrow", norm_bound=30)) == h_plus


def test_principal_totally_positive_generator_is_trivial_narrow():
    F = FieldCtx(5)
    f = QuadIdeal.from_generators(F, [11, F.omega + 3])
    # (a) for a totally positive, a = 1 mod f: principal ray class
    group = ray_classes(f, "narrow")
    one = QuadIdeal.principal(F, F.elem(1))
    cand = QuadIdeal.principal(F, F.elem(12))  # 12 = 1 mod 11, totally positive
    assert group.class_index(cand) == group.class_index(
        QuadIdeal.principal(F, F.elem(144))) == group.class_index(one) == 0


# ---------------------------------------------------------------------------
# algebraic recognition
# ---------------------------------------------------------------------------


def test_recognize_quadratic_planted_values():
    rng = random.Random(32)
    with CTX.workprec():
        sq5 = mp.sqrt(5)
        for _ in range(100):
            a = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
            b = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
            x = (mp.mpf(a.numerator) / a.denominator
                 + mp.mpf(b.numerator) / b.denominator * sq5)
            noise = mp.mpf("1e-12") * (2 * rng.random() - 1)
            got = recognize_quadratic(x + noise, 5, max_height=10,
                                      tol=1e-6, ctx=CTX)
            assert got is not None
            ra, rb, resid = got
            assert (ra, rb) == (a, b), (a, b, got)


def test_recognize_quadratic_rejects_transcendental():
    with CTX.workprec():
        got = recognize_quadratic(mp.pi, 5, max_height=10, tol=1e-10, ctx=CTX)
        assert got is None


def test_conjecture_check_rejects_random_coefficients(monkeypatch):
    # Seeded random reals are no a + b sqrt(5) of small height, yet the
    # exhaustive search matches 5 of these 40 within a fixed 1e-6.  Fed as
    # the one S0 of the trivial modulus, each must stay unrecognized at the
    # tolerance conjecture_check derives from its error target.
    F = FieldCtx(5)
    rng = random.Random(0)
    with CTX.workprec():
        xs = [mp.mpf(rng.uniform(-20, 20)) for _ in range(40)]
        loose = [recognize_quadratic(x, 5, tol=1e-6, ctx=CTX) for x in xs]
    assert sum(r is not None for r in loose) == 5
    for x in xs:
        monkeypatch.setattr(stark_mod, "stark_number",
                            lambda inp, ctx: StarkResult(x, x, mp.mpf(0), mp.mpf(0)))
        rep = conjecture_check(QuadIdeal(F, 1, 0, 1), CTX)
        assert rep.recognition_failures == (0,)


def test_recognize_integer_by_the_conjugate_bound():
    F = FieldCtx(5)
    with CTX.workprec():
        x = 1 + mp.sqrt(5)
        assert recognize_integer(x, F, 2, mp.mpf("1e-25"), CTX) == F.from_coords(0, 2)
        # its conjugate 1 - sqrt(5) exceeds the bound 1
        assert recognize_integer(x, F, 1, mp.mpf("1e-25"), CTX) is None
        # 0 and 1 both lie within 0.6 of 1/2 with conjugates of size <= 1
        with pytest.raises(ArithmeticError, match="2 algebraic integers .* 2 bits smaller"):
            recognize_integer(mp.mpf("0.5"), F, 1, mp.mpf("0.6"), CTX)
        # 2 bits smaller: 4 tol bound < 1, and neither lies within 0.15
        assert recognize_integer(mp.mpf("0.5"), F, 1, mp.mpf("0.15"), CTX) is None
        # the box holds only 0: a nonzero alpha within 1e-25 of 0 has a
        # conjugate of size at least 1e25
        assert recognize_integer(mp.mpf(0), F, 10 ** 6, mp.mpf("1e-25"), CTX).is_zero()


def test_recognize_integer_matches_the_window_search():
    # seeded calls in six fields, with bounds C(n, k), n <= 12, and tol from
    # 1 down to 1e-25 |c|: planted alpha whose conjugate lies near the bound,
    # moved by up to 1.5 tol, and random c; each call whose window holds at
    # most 10^3 candidates gets the same alpha, None or exception type from
    # the lattice and from the search, and where two alpha qualify, the
    # error target the message names separates them
    rng = random.Random(29)
    answered, seen = 0, set()
    with CTX.workprec():
        for _ in range(1200):
            D = rng.choice([2, 3, 5, 13, 79, 991])
            F = FieldCtx(D)
            n = rng.randint(0, 12)
            bound = math.comb(n, rng.randint(0, n))
            t, sq = F.omega_trace, mp.sqrt(D)
            omega_c = (t - sq) / (1 + t)
            v = rng.randint(-bound - 1, bound + 1)
            u = int(mp.nint(-v * omega_c)) + rng.randint(-(4 * bound) // 3, (4 * bound) // 3)
            c = F.from_coords(u, v).embed("id", CTX) if rng.random() < 0.8 \
                else mp.mpf(rng.uniform(-2000, 2000))
            tol = min(mp.mpf(1), mp.mpf(10) ** -rng.uniform(0, 25) * max(1, abs(c)))
            c += tol * rng.uniform(-1.5, 1.5)
            try:
                want = recognize_integer_reference(c, F, bound, tol, CTX, 10 ** 3)
            except BoundExceeded:
                continue
            except ConvergenceError:
                want = ConvergenceError
            answered += 1
            seen.add(want if want in (None, ConvergenceError) else "alpha")
            if want is not ConvergenceError:
                assert recognize_integer(c, F, bound, tol, CTX) == want, (D, bound, c, tol)
                continue
            with pytest.raises(ConvergenceError) as exc:
                recognize_integer(c, F, bound, tol, CTX)
            bits = int(re.search(r"(\d+) bits smaller", str(exc.value)).group(1))
            assert 4 * (tol / 2 ** bits) * bound < 1
            recognize_integer(c, F, bound, tol / 2 ** bits, CTX)  # raises nothing
    assert answered >= 1000 and seen == {None, ConvergenceError, "alpha"}


@pytest.mark.parametrize("n", [20, 32, 64])
def test_recognize_integer_of_a_planted_alpha_with_a_large_bound(n):
    # the middle coefficient's bound C(n, n/2) in D=5 at 256 bits: 184,756
    # and more, past the 10^5 candidates the window search allowed; the
    # reduced basis reads the box in a few ms (the alarm stops a search that
    # does not reduce); |v| >= 2 bound puts u - v omega', the conjugate with
    # the sign of omega' flipped, past the bound
    F, ctx = FieldCtx(5), PrecisionCtx(256, 1e-68)
    bound, rng = math.comb(n, n // 2), random.Random(n)

    def too_slow(*_):
        raise TimeoutError("recognition ran past 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        with ctx.workprec():
            for _ in range(3):
                v = rng.choice((-1, 1)) * rng.randint(2 * bound, 3 * bound)
                u = int(mp.nint(rng.uniform(-1, 1) * bound - v * (1 - mp.sqrt(5)) / 2))
                alpha = F.from_coords(u, v)
                assert abs(alpha.conjugate().embed("id", ctx)) <= bound
                c = alpha.embed("id", ctx) * (1 + mp.mpf(10) ** -70 * rng.uniform(-1, 1))
                tol = ctx.target_abs_err * max(1, abs(c))
                start = time.perf_counter()
                got = recognize_integer(c, F, bound, tol, ctx)
                assert time.perf_counter() - start < 0.01
                assert got == alpha
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_conjecture_check_on_cl_f_oo2_of_d3_modulus_5(monkeypatch):
    # 16 narrow classes, R1 and R2 distinct and nontrivial: |G| = 8 and four
    # <R1, R2>-orbits, each with one Stark number and one invariance
    # partner, plus the direct S0(R2) of the inversion gate; at the CLI's
    # default precision
    calls, results = [], []
    stark_number = stark_mod.stark_number

    def counting(inp, ctx):
        calls.append(inp)
        results.append(stark_number(inp, ctx))
        return results[-1]

    monkeypatch.setattr(stark_mod, "stark_number", counting)
    F = FieldCtx(3)
    rep = conjecture_check(QuadIdeal.principal(F, F.elem(5)), CTX)
    assert len(calls) == 9
    assert rep.passed and rep.recognition_failures == ()
    # Q = X^8 - (8+5r3)X^7 + (53+30r3)X^6 - (156+90r3)X^5 + (225+130r3)X^4 - ... + 1
    half = [(1, 0), (-8, -5), (53, 30), (-156, -90)]
    assert [ce.recognized for ce in rep.coefficients] == half + [(225, 130)] + half[::-1]
    residuals = [c.invariance_residual for c in rep.classes
                 if c.invariance_residual is not None]
    assert len(rep.classes) == 8 and len(residuals) == 4
    assert all(r <= rep.tolerance for r in residuals + [rep.inversion_residual])
    # no gate compares a computation with itself: the k-th invariance
    # residual compares calls 2k and 2k+1 and the inversion residual calls 0
    # and 8; each partner lies on another reduced lattice than its class's
    # pair, and the direct S0(R2) on none of class 0's two lattices or their
    # conjugates.  (Two such S0 may still agree to the last bit, so a
    # residual may read 0.0.)
    s0 = [res.s0 for res in results]
    with CTX.workprec():
        assert residuals == [abs(s0[k + 1] / s0[k] - 1) for k in range(0, 8, 2)]
        assert rep.inversion_residual == abs(s0[8] * s0[0] - 1)
    lattices = [inp.L for inp in calls]
    assert all(first != partner for first, partner in zip(lattices[0:8:2], lattices[1:8:2]))
    assert lattices[8] not in {M for L in lattices[:2] for M in (L, L.conjugate())}


# Address space of the sweep's own process: the sweep peaks far below it,
# so a walk or a search that runs away fails here instead of the machine.
_SWEEP_AS = 3 << 30


def test_conjecture_sweep_outcomes():
    # conjecture_check at 64 bits and 1e-12 on each of the 147 moduli of norm
    # 2-30 in D = 2, 3, 5, 6, 7, 10 (tests/sweep.py, about 4 s): 30 pass, 94
    # fail condition (ii) (a unit == 1 mod f has a negative conjugate, exit
    # 4), and 23 have a class with no member for a pair (exit 3); the counts
    # move only in a change that names the move
    here = pathlib.Path(__file__).resolve().parent
    r = subprocess.run(
        [sys.executable, str(here / "sweep.py"), "sweep"], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(here.parent / "src")},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (_SWEEP_AS, _SWEEP_AS)))
    assert r.returncode == 0, (r.stdout, r.stderr)
    assert json.loads(r.stdout) == SWEEP_SETS["sweep"][2]
