import random

import mpmath as mp
import pytest

from starklab.cyclotomic import (
    CongruenceClass,
    TauUndefined,
    _euler_maclaurin_cut,
    hurwitz_zeta,
    hurwitz_zeta_prime0,
    jones_index_member,
    stark_q,
    tl_critical,
    zeta_mn,
    zeta_mn_prime0,
)
from starklab.numerics import PrecisionCtx
from oracles import numeric_derivative

mp.mp.dps = 50

CTX = PrecisionCtx(128, 1e-30)


# ---------------------------------------------------------------------------
# Hurwitz zeta: oracle comparisons and exact special values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", ["2", "3.5", "-0.5", "-3", "0.25", "12"])
@pytest.mark.parametrize("a_num,a_den", [(1, 2), (1, 3), (7, 10), (1, 20), (19, 20)])
def test_hurwitz_zeta_against_mpmath(s, a_num, a_den):
    with CTX.workprec():
        sv = mp.mpf(s)
        a = mp.mpf(a_num) / a_den
        ours = hurwitz_zeta(sv, a, CTX)
        oracle = mp.zeta(sv, a)
        assert abs(ours - oracle) < 1e-30 * max(1, abs(oracle))


@pytest.mark.parametrize("s", ["2+3j", "0.5+14j", "-1.5+2j"])
def test_hurwitz_zeta_complex_argument(s):
    with CTX.workprec():
        sv = mp.mpc(complex(s))
        for a in (mp.mpf(1) / 3, mp.mpf("0.7")):
            ours = hurwitz_zeta(sv, a, CTX)
            oracle = mp.zeta(sv, a)
            assert abs(ours - oracle) < 1e-28 * max(1, abs(oracle))


# 1 +- 2^-20 and the complex points are exact binary floats
GRID_S = [0, -1, -3, -6, 1 + 2 ** -20, 1 - 2 ** -20, 2, 12, 40,
          2 + 3j, 0.5 + 14j, -1.5 + 2j, 0.5 + 40j]
GRID_A = [(1, 20), (19, 20), (1, 1), (5, 2), (30, 1)]


@pytest.mark.parametrize("bits,target", [(64, 1e-15), (128, 1e-30), (256, 1e-70)])
@pytest.mark.parametrize("s", GRID_S)
def test_hurwitz_zeta_oracle_grid(bits, target, s):
    # Euler-Maclaurin with N and M from the remainder bound, against
    # mp.zeta at twice the working precision, to target * max(1, |zeta|)
    ctx = PrecisionCtx(bits, target)
    for num, den in GRID_A:
        with ctx.workprec():
            sv, a = mp.mpmathify(s), mp.mpf(num) / den
            ours = hurwitz_zeta(sv, a, ctx)
            twice = 2 * mp.mp.prec
        with mp.workprec(twice):
            oracle = mp.zeta(sv, a)
            assert abs(ours - oracle) < target * max(1, abs(oracle)), (num, den)


@pytest.mark.parametrize("k", range(7))
def test_hurwitz_zeta_ends_exactly_at_nonpositive_integers(k):
    # zeta_H(-k, a) = -B_(k+1)(a)/(k+1): the Pochhammer symbol (-k)_(2j-1)
    # vanishes for j > (1+k)/2, so no head term is summed and the
    # Bernoulli sum ends after ceil(k/2) terms, even at a = 1/20, where
    # the terms grow until they vanish
    with CTX.workprec():
        for a in (mp.mpf(1) / 20, mp.mpf(1) / 3, mp.mpf(19) / 20, mp.mpf(1), mp.mpf(5) / 2):
            exact = -mp.bernpoly(k + 1, a) / (k + 1)
            assert abs(hurwitz_zeta(-k, a, CTX) - exact) < 1e-40
            one = 1 << mp.mp.prec
            assert _euler_maclaurin_cut(mp.mpf(-k), float(a), 1e-33, -k * one, one) \
                == (0, (k + 1) // 2)


def test_hurwitz_zeta_at_zero_is_half_minus_a():
    with CTX.workprec():
        for num, den in ((1, 2), (2, 7), (9, 11)):
            a = mp.mpf(num) / den
            assert abs(hurwitz_zeta(mp.mpf(0), a, CTX) - (mp.mpf(1) / 2 - a)) < 1e-30


def test_hurwitz_zeta_at_a_huge_or_non_finite_s():
    # at s = 1e19 the least x = N + a that the remainder bound allows lies
    # just above a = 1 and rounds to it as a float, so the head must still
    # take N >= 1 term; an s that is not a finite float is rejected (the CLI
    # test of `bc kms --beta 1e400` times the one past the float range)
    with CTX.workprec():
        one = 1 << (mp.mp.prec + 64)
        N, _ = _euler_maclaurin_cut(mp.mpf("1e19"), 1.0, 1e-33, 10**19 * one, one)
        assert N >= 1
        assert abs(hurwitz_zeta(mp.mpf("1e19"), mp.mpf(1), CTX) - 1) < 1e-30
        for s in (mp.inf, mp.nan, mp.mpc(2, mp.inf)):
            with pytest.raises(ValueError):
                hurwitz_zeta(s, mp.mpf(1), CTX)


def test_hurwitz_zeta_prime0_closed_forms():
    with CTX.workprec():
        # zeta_H'(0, 1/2) = -log(2)/2; zeta_H'(0, 1) = -log(2 pi)/2
        assert abs(hurwitz_zeta_prime0(mp.mpf("0.5"), CTX) + mp.log(2) / 2) < 1e-30
        assert abs(hurwitz_zeta_prime0(mp.mpf(1), CTX) + mp.log(2 * mp.pi) / 2) < 1e-30


def test_hurwitz_zeta_prime0_matches_numeric_derivative():
    with CTX.workprec():
        for num, den in ((1, 3), (7, 10)):
            a = mp.mpf(num) / den
            der, err, stable = numeric_derivative(
                lambda s: hurwitz_zeta(s, a, CTX), mp.mpf(0), mp.mpf("1e-10"), CTX
            )
            assert stable
            assert abs(hurwitz_zeta_prime0(a, CTX) - der) < 1e-18


# ---------------------------------------------------------------------------
# the two-term congruence zeta
# ---------------------------------------------------------------------------


def _zeta_mn_direct(m, n, s, terms=5000):
    # raw sum over k = +-m mod n with a midpoint tail estimate:
    # sum_{j>=K} (j+a)^(-s) ~ (K+a-1/2)^(1-s)/(s-1)
    total = mp.mpf(0)
    for a in (mp.mpf(m) / n, 1 - mp.mpf(m) / n):
        partial = mp.fsum((j + a) ** (-s) for j in range(terms))
        tail = (terms + a - mp.mpf(1) / 2) ** (1 - s) / (s - 1)
        total += partial + tail
    return total * mp.power(n, -s)


def test_zeta_mn_against_direct_sum():
    rng = random.Random(41)
    with CTX.workprec():
        for _ in range(20):
            n = rng.randint(2, 20)
            m = rng.randint(1, n - 1)
            c = CongruenceClass(m, n)
            direct = _zeta_mn_direct(m, n, mp.mpf(2))
            assert abs(zeta_mn(c, mp.mpf(2), CTX) - direct) < 1e-13


def test_zeta_mn_prime0_matches_numeric_derivative():
    with CTX.workprec():
        for m, n in ((1, 5), (3, 7), (2, 9)):
            c = CongruenceClass(m, n)
            der, err, stable = numeric_derivative(
                lambda s: zeta_mn(c, s, CTX), mp.mpf(0), mp.mpf("1e-10"), CTX
            )
            assert stable
            assert abs(zeta_mn_prime0(c, CTX) - der) < 1e-18


# ---------------------------------------------------------------------------
# the sine identity exp(-2 zeta') = 4 sin^2
# ---------------------------------------------------------------------------


def test_sine_identity_full_grid():
    with CTX.workprec():
        worst = mp.mpf(0)
        for n in range(2, 21):
            for m in range(1, n):
                lhs, rhs = stark_q(CongruenceClass(m, n), CTX)
                worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-20


def test_sine_identity_values_are_4sin2():
    with CTX.workprec():
        for m, n in ((1, 6), (1, 4), (1, 3)):
            lhs, rhs = stark_q(CongruenceClass(m, n), CTX)
            assert abs(rhs - 4 * mp.sin(mp.pi * m / n) ** 2) < 1e-30
            assert abs(lhs - rhs) < 1e-25
        # m/n = 1/6: 4 sin^2(pi/6) = 1
        lhs, _ = stark_q(CongruenceClass(1, 6), CTX)
        assert abs(lhs - 1) < 1e-25


def test_galois_multiset_stability():
    # the multiset {q_(m,n) : gcd(m,n)=1} is stable under m -> k*m mod n
    import math

    with CTX.workprec():
        for n in (7, 12):
            vals = sorted(
                float(stark_q(CongruenceClass(m, n), CTX)[0])
                for m in range(1, n) if math.gcd(m, n) == 1
            )
            for k in (2, 3, 5):
                if math.gcd(k, n) != 1:
                    continue
                permuted = sorted(
                    float(stark_q(CongruenceClass(k * m % n, n), CTX)[0])
                    for m in range(1, n) if math.gcd(m, n) == 1
                )
                assert all(abs(x - y) < 1e-12 for x, y in zip(vals, permuted))


# ---------------------------------------------------------------------------
# Temperley-Lieb critical values and the Jones spectrum
# ---------------------------------------------------------------------------


def test_tl_critical_values():
    with CTX.workprec():
        # tau = 1 / (4 cos^2(pi m / (n+1)))
        assert abs(tl_critical(1, 2, CTX) - 1) < 1e-30          # 4cos^2(pi/3) = 1
        assert abs(tl_critical(1, 3, CTX) - mp.mpf(1) / 2) < 1e-30
        golden = (1 + mp.sqrt(5)) / 2
        assert abs(tl_critical(1, 4, CTX) - 1 / golden**2) < 1e-30
        for m, n in ((1, 5), (2, 5), (1, 9)):
            expected = 1 / (4 * mp.cos(mp.pi * m / (n + 1)) ** 2)
            assert abs(tl_critical(m, n, CTX) - expected) < 1e-30


def test_tl_critical_undefined_at_midpoint():
    with pytest.raises(TauUndefined):
        tl_critical(2, 3, CTX)  # 2m = n + 1: cos(pi/2) = 0
    with pytest.raises(TauUndefined):
        tl_critical(3, 5, CTX)


def test_jones_index_membership():
    with CTX.workprec():
        # 4 cos^2(pi/n) for n = 3, 4, 5, 6: 1, 2, golden^2, 3
        ok, n = jones_index_member(mp.mpf(1), ctx=CTX)
        assert ok and n == 3
        ok, n = jones_index_member(mp.mpf(2), ctx=CTX)
        assert ok and n == 4
        golden = (1 + mp.sqrt(5)) / 2
        ok, n = jones_index_member(golden * golden, ctx=CTX)
        assert ok and n == 5
        ok, n = jones_index_member(mp.mpf(3), ctx=CTX)
        assert ok and n == 6
        # anything >= 4 is in the continuous range
        ok, _ = jones_index_member(mp.mpf("4.0"), ctx=CTX)
        assert ok
        ok, _ = jones_index_member(mp.mpf("7.3"), ctx=CTX)
        assert ok
        # gaps below 4 are excluded
        ok, _ = jones_index_member(mp.mpf("3.5"), ctx=CTX)
        assert not ok
        ok, _ = jones_index_member(mp.mpf("1.5"), ctx=CTX)
        assert not ok
        ok, _ = jones_index_member(mp.mpf("0.5"), ctx=CTX)
        assert not ok
