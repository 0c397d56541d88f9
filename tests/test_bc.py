import random
from fractions import Fraction

import mpmath as mp
import pytest

from starklab.bc import (
    TruncatedRep,
    TruncationOverflow,
    apply_word,
    check_relations,
    e,
    kms_state,
    mu,
    mu_star,
    partition_function,
)
from starklab.numerics import PrecisionCtx

mp.mp.dps = 50

CTX = PrecisionCtx(128, 1e-30)
REP = TruncatedRep(N=5000)

ULP128 = mp.mpf(2) ** -128


# ---------------------------------------------------------------------------
# the truncated representation
# ---------------------------------------------------------------------------


def test_apply_word_basic_actions():
    with CTX.workprec():
        # mu_3 eps_2 = eps_6
        v = apply_word([mu(3)], 2, REP, CTX)
        assert set(v) == {6} and abs(v[6] - 1) < ULP128
        # mu_3* eps_6 = eps_2; mu_3* eps_7 = 0
        v = apply_word([mu_star(3)], 6, REP, CTX)
        assert set(v) == {2} and abs(v[2] - 1) < ULP128
        assert apply_word([mu_star(3)], 7, REP, CTX) == {}
        # e(1/4) eps_3 = e^{2 pi i 3/4} eps_3
        v = apply_word([e(Fraction(1, 4))], 3, REP, CTX)
        assert set(v) == {3}
        assert abs(v[3] - mp.expjpi(mp.mpf(3) / 2)) < ULP128
        # leftmost generator acts last: mu_2 e(1/3) eps_1 picks up the phase
        # at index 1, then moves to index 2
        v = apply_word([mu(2), e(Fraction(1, 3))], 1, REP, CTX)
        assert set(v) == {2}
        assert abs(v[2] - mp.expjpi(mp.mpf(2) / 3)) < ULP128
        # ... while e(1/3) mu_2 picks the phase up at index 2
        v = apply_word([e(Fraction(1, 3)), mu(2)], 1, REP, CTX)
        assert set(v) == {2}
        assert abs(v[2] - mp.expjpi(mp.mpf(4) / 3)) < ULP128


def test_apply_word_galois_twist():
    with CTX.workprec():
        rep = TruncatedRep(N=100, galois_twist=2)
        v = apply_word([e(Fraction(1, 5))], 1, rep, CTX)
        assert abs(v[1] - mp.expjpi(mp.mpf(4) / 5)) < ULP128  # 2/5 doubled
        with pytest.raises(ValueError):
            apply_word([e(Fraction(1, 4))], 1, rep, CTX)  # 2 not a unit mod 4


def test_truncation_overflow():
    rep = TruncatedRep(N=10)
    with pytest.raises(TruncationOverflow):
        apply_word([mu(3)], 4, rep, CTX)
    with pytest.raises(TruncationOverflow):
        apply_word([], 11, rep, CTX)
    # overflow triggers on intermediate indices even if the end would fit
    with pytest.raises(TruncationOverflow):
        apply_word([mu_star(5), mu(5)], 9, rep, CTX)


def test_relations_within_8_ulp():
    sample = [1, 2, 3, 4, 5, 6, 10, 12, 30, 100]
    report = check_relations(REP, sample, CTX)
    assert set(report) == {
        "mu_star_mu_identity", "mu_multiplicative", "coprime_commutation",
        "e_group_law", "e_mu_twist", "averaging",
    }
    for name, worst in report.items():
        assert worst <= 8 * ULP128, (name, worst)


def test_relations_skip_words_that_leave_a_small_truncation():
    # 12 * 2 > 20: every family skips the instances whose words would leave
    # the truncation, and still reports on the rest
    report = check_relations(TruncatedRep(N=20), [1, 2, 3, 5, 7, 12], CTX)
    assert len(report) == 6
    for name, worst in report.items():
        assert worst <= 8 * ULP128, (name, worst)
    # a sample index outside [1, N] is an error, not a skip
    for k in (0, 21):
        with pytest.raises(TruncationOverflow):
            check_relations(TruncatedRep(N=20), [k], CTX)


# ---------------------------------------------------------------------------
# KMS values
# ---------------------------------------------------------------------------


def test_partition_function_is_riemann_zeta():
    with CTX.workprec():
        assert abs(partition_function(mp.mpf(2), CTX) - mp.pi ** 2 / 6) < 1e-30
        assert abs(partition_function(mp.mpf(4), CTX) - mp.pi ** 4 / 90) < 1e-30
    with pytest.raises(ValueError):
        partition_function(mp.mpf(1), CTX)


def test_kms_value_at_gamma_half():
    # phi_2(e(1/2)) = zeta(2)^{-1} sum (-1)^k k^{-2} = -eta(2)/zeta(2) = -1/2
    with CTX.workprec():
        val, _ = kms_state(mp.mpf(2), Fraction(1, 2), 1, CTX)
        assert abs(val - mp.mpf(-1) / 2) < 1e-15
        assert abs(val.imag) < 1e-30


def test_kms_value_at_gamma_zero_is_one():
    with CTX.workprec():
        val, _ = kms_state(mp.mpf(2), Fraction(0), 1, CTX)
        assert abs(val - 1) < 1e-15


def _kms_brute(beta, gamma: Fraction, k0=200000):
    # raw truncated series with rigorous tail control: |tail| <=
    # k0^(1-beta)/(beta-1)
    total = mp.mpc(0)
    for k in range(1, k0):
        total += mp.expjpi(2 * mp.mpf((k * gamma.numerator) % gamma.denominator)
                           / gamma.denominator) * mp.power(k, -beta)
    zeta = mp.zeta(beta)
    bound = mp.power(k0, 1 - beta) / (beta - 1) / abs(zeta)
    return total / zeta, bound


@pytest.mark.parametrize("beta", ["1.5", "2", "3"])
@pytest.mark.parametrize("num,den", [(1, 3), (2, 5), (3, 7)])
def test_kms_against_truncated_series(beta, num, den):
    with CTX.workprec():
        b = mp.mpf(beta)
        g = Fraction(num, den)
        val, _ = kms_state(b, g, 1, CTX)
        brute, bound = _kms_brute(b, g, k0=20000)
        assert abs(val - brute) < bound + 1e-25


def test_kms_modulus_bounded_by_one():
    rng = random.Random(51)
    with CTX.workprec():
        for _ in range(15):
            den = rng.randint(2, 12)
            num = rng.randint(0, den - 1)
            b = mp.mpf(1) + mp.mpf(rng.randint(2, 40)) / 10
            val, _ = kms_state(b, Fraction(num, den), 1, CTX)
            assert abs(val) <= 1 + 1e-25


def test_kms_large_beta_approaches_twisted_character():
    # as beta -> infinity only k = 1 survives: phi -> e^{2 pi i r gamma}
    with CTX.workprec():
        val, _ = kms_state(mp.mpf(50), Fraction(1, 3), 1, CTX)
        # the k = 2 term contributes ~2^{-50}
        assert abs(val - mp.expjpi(mp.mpf(2) / 3)) < mp.mpf(2) ** -48


def test_kms_galois_twists_separate():
    with CTX.workprec():
        vals = []
        for r in (1, 2, 3, 4, 0):
            if r == 0:
                continue
            val, _ = kms_state(mp.mpf(2), Fraction(1, 5), r, CTX)
            vals.append(val)
        # plus the untwisted gamma = 0 reference
        val0, _ = kms_state(mp.mpf(2), Fraction(0), 1, CTX)
        vals.append(val0)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[j]) > 1e-3


def test_kms_twist_equals_twisted_gamma():
    with CTX.workprec():
        a, _ = kms_state(mp.mpf(2), Fraction(1, 7), 3, CTX)
        b, _ = kms_state(mp.mpf(2), Fraction(3, 7), 1, CTX)
        assert abs(a - b) < 1e-30
