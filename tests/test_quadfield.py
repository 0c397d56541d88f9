import math
import random
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50
import pytest
from hypothesis import given, settings, strategies as st

from starklab.pseudolattice import ideal_to_pseudolattice
from starklab.quadfield import (
    FieldCtx,
    QuadElem,
    QuadIdeal,
    _cf_key,
    _hnf_2col,
    cf_expand,
    fundamental_unit,
    unit_mod_f,
)
from starklab.stark import _enumerate_coprime_ideals
from conftest import SQUAREFREE_50, random_elem
from oracles import generator_coords_reference, pell_fundamental_unit

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
ds = st.sampled_from(SQUAREFREE_50)


@given(ds, rationals, rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_norm_multiplicative(D, a, b, c, d):
    u = QuadElem(D, a, b)
    v = QuadElem(D, c, d)
    assert (u * v).norm() == u.norm() * v.norm()


@given(ds, rationals, rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_trace_additive_and_conj(D, a, b, c, d):
    u = QuadElem(D, a, b)
    v = QuadElem(D, c, d)
    assert (u + v).trace() == u.trace() + v.trace()
    assert (u * v).conjugate() == u.conjugate() * v.conjugate()


@given(ds, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_sign_and_floor_match_floats(D, a, b):
    u = QuadElem(D, a, b)
    x = float(a) + float(b) * math.sqrt(D)
    if abs(x) > 1e-9:
        assert u.sign() == (1 if x > 0 else -1)
    f = u.floor()
    assert f <= x + 1e-9 and x - 1e-9 < f + 1


@given(ds, rationals.filter(lambda q: q != 0), rationals)
@settings(max_examples=40, deadline=None)
def test_inverse(D, a, b):
    u = QuadElem(D, a, b)
    if not u.is_zero():
        assert (u * u.inverse() - 1).is_zero()


def test_fundamental_unit_vs_pell_small():
    for D in SQUAREFREE_50:
        u = fundamental_unit(D)
        ref = pell_fundamental_unit(D, bound=60000)
        assert ref is not None
        assert u == ref, "D=%d: %s vs %s" % (D, u, ref)
        assert abs(u.norm()) == 1


def _is_proper_power(u: QuadElem, D: int) -> bool:
    """Exact check whether +-u = w^k for an integral unit w > 1, k >= 2."""
    F = FieldCtx(D)
    with mp.workprec(300):
        x = mp.mpf(u.x.numerator) / u.x.denominator + mp.sqrt(D) * u.y.numerator / u.y.denominator
        kmax = int(mp.log(x) / mp.log((1 + mp.sqrt(D)) / 2)) + 1
        om = mp.mpf(F.omega.x.numerator) / F.omega.x.denominator + \
            mp.sqrt(D) * F.omega.y.numerator / F.omega.y.denominator
        for k in range(2, max(3, kmax + 1)):
            r = mp.power(x, mp.mpf(1) / k)
            for sgn in (1, -1):  # sign of N(w)^? i.e. of w' = sgn / r
                rc = sgn / r
                # coordinates in the (1, omega) basis: w = m + n*omega,
                # so n = (w - w') / (omega - omega') with omega - omega' = 2*y(omega)*sqrt(D)
                n_guess = (r - rc) / (mp.sqrt(D) * 2 * F.omega.y.numerator / F.omega.y.denominator)
                for dn in (-1, 0, 1):
                    n = int(mp.nint(n_guess)) + dn
                    m_guess = r - n * om
                    for dm in (-1, 0, 1):
                        m = int(mp.nint(m_guess)) + dm
                        w = F.from_coords(m, n)
                        if w.is_zero() or abs(w.norm()) != 1:
                            continue
                        pw = w ** k
                        if (pw == u or pw == -u) and not (w == u or w == -u):
                            return True
    return False


@pytest.mark.parametrize("D", [139, 151, 163, 166, 199])
def test_fundamental_unit_large_cases_minimal(D):
    """Pell brute force is infeasible here; verify |N| = 1, unit > 1, and
    that the unit is not a proper power of a smaller unit."""
    u = fundamental_unit(D)
    assert abs(u.norm()) == 1
    assert u.compare(QuadElem(D, 1)) > 0
    assert FieldCtx(D).is_integral(u)
    assert not _is_proper_power(u, D)


def test_cf_expansion_periodicity():
    rng = random.Random(11)
    for _ in range(15):
        D = rng.choice(SQUAREFREE_50)
        theta = QuadElem(D, Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                         Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        qs, vals, (start, period) = cf_expand(theta)
        assert period >= 1
        assert len(vals) == start + period
        # step the complete quotient by hand through one full cycle
        v = vals[start]
        for _ in range(period):
            v = (v - QuadElem(v.D, v.floor())).inverse()
        assert v == vals[start]


def _rand_ideal(rng, F):
    while True:
        g1 = QuadElem(F.D, rng.randint(-9, 9), rng.randint(-9, 9))
        g2 = QuadElem(F.D, rng.randint(-9, 9), rng.randint(-9, 9))
        if not (g1.is_zero() and g2.is_zero()):
            I = QuadIdeal.from_generators(F, [g1, g2])
            if I.norm() > 0:
                return I


def test_ideal_norm_multiplicative_and_conjugate():
    rng = random.Random(5)
    for _ in range(40):
        F = FieldCtx(rng.choice([2, 3, 5, 13, 21]))
        A = _rand_ideal(rng, F)
        B = _rand_ideal(rng, F)
        assert (A * B).norm() == A.norm() * B.norm()
        # A * conj(A) = (N(A))
        C = A * A.conjugate()
        P = QuadIdeal.principal(F, F.elem(A.norm()))
        assert C.hnf() == P.hnf()


def test_ideal_check_accepts_exactly_the_omega_stable_modules():
    # oracle: aZ + (b + c omega)Z is an ideal iff the ideal its two
    # generators span over O_K is the module itself
    for D in (2, 3, 5, 13, 21):
        F = FieldCtx(D)
        for a in range(1, 16):
            for c in (c for c in range(1, a + 1) if a % c == 0):
                for b in range(0, a, c):
                    span = QuadIdeal.from_generators(F, [a, F.from_coords(b, c)])
                    if span.hnf() == (a, b, c):
                        QuadIdeal(F, a, b, c)
                    else:
                        with pytest.raises(ValueError):
                            QuadIdeal(F, a, b, c)


def test_ideal_membership_and_gcd():
    rng = random.Random(6)
    for _ in range(30):
        F = FieldCtx(rng.choice([2, 3, 5, 13]))
        A = _rand_ideal(rng, F)
        B = _rand_ideal(rng, F)
        G = A.gcd(B)
        for g in A.module_generators() + B.module_generators():
            assert G.contains(g)
        # G divides both
        assert A.divide(G).norm() * G.norm() == A.norm()
        assert B.divide(G).norm() * G.norm() == B.norm()


def _generator(I):
    """An alpha with (alpha) = I, or None when I is not principal."""
    gen = I.generator_coords()
    return None if gen is None else I.field.from_coords(*gen)


def test_principal_generator_roundtrip():
    rng = random.Random(7)
    for _ in range(30):
        F = FieldCtx(rng.choice([2, 3, 5, 46, 94, 1726]))
        g = QuadElem(F.D, rng.randint(-6, 6), rng.randint(-6, 6))
        if g.is_zero():
            continue
        I = QuadIdeal.principal(F, g)
        h = _generator(I)
        assert h is not None
        assert QuadIdeal.principal(F, h) == I
        # h and g agree up to a unit
        q = g / h
        assert F.is_integral(q) and abs(q.norm()) == 1
    # the prime above 2 of D = 1726, whose fundamental unit is about 5e39
    F = FieldCtx(1726)
    P2 = QuadIdeal.from_generators(F, [2, F.omega])
    h = _generator(P2)
    assert h is not None and abs(h.norm()) == 2
    assert QuadIdeal.principal(F, h) == P2


def _reference_cf(theta):
    """Complete quotients by QuadElem steps v -> 1/(v - floor v), up to the
    first repeat: (partial quotients, values)."""
    quotients, values = [], {}
    v = theta
    while v not in values:
        values[v] = len(values)
        a = v.floor()
        quotients.append(a)
        v = (v - a).inverse()
    return quotients, values


def _bottom_row(quotients):
    q, q_ = 0, 1
    for a in quotients:
        q, q_ = a * q + q_, q
    return q, q_


def _reference_principal_generator(I, omega_cf):
    """The principal test on Fraction coordinates: theta = (b + c omega)/a
    and omega share a complete quotient x iff I is principal, and then
    a (N21 x + N22)/(M21 x + M22) generates I."""
    F = I.field
    q1, values1 = _reference_cf(F.from_coords(I.b, I.c) / I.a)
    q2, values2 = omega_cf
    x = next((x for x in values1 if x in values2), None)
    if x is None:
        return None
    m21, m22 = _bottom_row(q1[:values1[x]])
    n21, n22 = _bottom_row(q2[:values2[x]])
    alpha = I.a * (n21 * x + n22) / (m21 * x + m22)
    assert QuadIdeal.principal(F, alpha) == I
    return alpha


def test_principal_generator_matches_fraction_reference():
    # every ideal of norm <= 60 in 13 fields: 70 non-principal ones in
    # D = 79 (h = 3), and units up to ~5e39 (D = 1726, with its prime
    # above 2)
    n_ideals = n_principal = 0
    for D in (2, 3, 5, 6, 7, 13, 29, 41, 46, 61, 79, 94, 1726):
        F = FieldCtx(D)
        omega_cf = _reference_cf(F.omega)
        ideals = _enumerate_coprime_ideals(F, QuadIdeal.unit_ideal(F), 60)
        if D == 1726:
            assert QuadIdeal.from_generators(F, [2, F.omega]) in ideals
        for I in ideals:
            want = _reference_principal_generator(I, omega_cf)
            got = _generator(I)
            assert got == want, I
            n_ideals += 1
            n_principal += want is not None
    assert (n_ideals, n_principal) == (865, 795)


def test_generator_coords_matches_the_division_reference():
    # every ideal of norm <= 150 in 17 fields: the witness's bottom row gives
    # the generator that the exact division of the two automorphs gave
    n_ideals = n_principal = 0
    for D in (2, 3, 5, 6, 7, 10, 13, 15, 26, 46, 79, 82, 94, 151, 331, 661, 991):
        F = FieldCtx(D)
        for I in _enumerate_coprime_ideals(F, QuadIdeal.unit_ideal(F), 150):
            want = generator_coords_reference(I)
            assert I.generator_coords() == want, I
            n_ideals += 1
            n_principal += want is not None
    assert (n_ideals, n_principal) == (3159, 2600)


def test_cf_keys_are_canonical():
    # proportional states have one key, with Q > 0; others differ
    for P, m, Q in ((3, 1, 2), (-3, 1, -2), (0, 1, 1), (5, -2, 7)):
        for k in (1, -1, 2, -6):
            key = _cf_key(k * P, k * m, k * Q)
            assert key == _cf_key(P, m, Q) and key[2] > 0
            assert math.gcd(*key) == 1
    assert _cf_key(3, 1, 2) != _cf_key(3, 2, 2)


def test_principal_generator_hnf_gate_fires(monkeypatch):
    # a wrong convergent matrix gives a witness whose alpha does not
    # generate the ideal: the round trip must refuse it
    import starklab.quadfield as qf

    F = FieldCtx(5)
    I = QuadIdeal.from_generators(F, [11, F.omega + 3])
    assert I.generator_coords() is not None
    real = qf._convergent_matrix
    monkeypatch.setattr(qf, "_convergent_matrix",
                        lambda qs: (lambda p, p_, q, q_: (p, p_, q + 1, q_))(*real(qs)))
    with pytest.raises(ArithmeticError):
        I.generator_coords()


def test_ideal_product_commutes():
    # ray_classes looks up rep_i * rep_j for j >= i only
    rng = random.Random(8)
    for _ in range(40):
        F = FieldCtx(rng.choice([2, 3, 5, 13, 46]))
        A, B = _rand_ideal(rng, F), _rand_ideal(rng, F)
        assert (A * B).hnf() == (B * A).hnf()


def test_unit_mod_f_known_cases(F5, p11):
    ud = unit_mod_f(F5, p11)
    phi = F5.omega
    assert ud.eps_f == -(phi ** 5)
    assert ud.kappa == 2
    assert ud.sign_condition
    assert ud.eps_f_plus == phi ** 10

    ud1 = unit_mod_f(F5, QuadIdeal.unit_ideal(F5))
    assert ud1.kappa == 4
    assert ud1.minus_one_in_ef
    assert not ud1.sign_condition


def test_unit_mod_f_congruence_property():
    rng = random.Random(8)
    for _ in range(10):
        F = FieldCtx(rng.choice([2, 3, 5, 13]))
        f = _rand_ideal(rng, F)
        if f.norm() > 600:
            continue
        ud = unit_mod_f(F, f)
        assert f.contains(ud.eps_f - 1)
        assert f.contains(ud.eps_f_plus - 1)
        assert ud.eps_f_plus.is_totally_positive()


def _span(F, elems):
    """Reference HNF of the Z-module spanned by integral QuadElems, through
    QuadElem coordinates (no ideal arithmetic)."""
    rows = []
    for e in elems:
        u, v = F.coords(e)
        assert u.denominator == 1 and v.denominator == 1
        rows.append((int(u), int(v)))
    return _hnf_2col(rows)


def test_ideal_arithmetic_matches_generator_products():
    rng = random.Random(9)
    for _ in range(40):
        F = FieldCtx(rng.choice([2, 3, 5, 13, 21, 46]))
        A = _rand_ideal(rng, F)
        B = _rand_ideal(rng, F)
        g = F.from_coords(rng.randint(-9, 9), rng.randint(1, 9))
        k = rng.randint(2, 9)
        gens_a, gens_b = A.module_generators(), B.module_generators()
        assert (A * B).hnf() == _span(F, [x * y for x in gens_a for y in gens_b])
        assert (A * g).hnf() == _span(F, [x * g for x in gens_a])
        assert (g * A).hnf() == (A * g).hnf()
        assert (A * k).hnf() == _span(F, [x * k for x in gens_a])
        assert (A * k).divide_by_integer(k) == A
        assert A.gcd(B).hnf() == _span(F, gens_a + gens_b)
        with pytest.raises(ValueError):
            A.divide_by_integer(A.a + 1)
        # membership against the exact coordinate solve of the Z-module
        lat = ideal_to_pseudolattice(A)
        for _ in range(10):
            x = random_elem(rng, F.D, span=9)
            if rng.random() < 0.5:
                x = rng.randint(-5, 5) * gens_a[0] + rng.randint(-5, 5) * gens_a[1]
            assert A.contains(x) == lat.contains(x)


def test_unit_mod_f_order_is_least_power_congruent_to_pm1():
    # reference: exact powers of eps0, membership by coordinate solve
    for D in (2, 3, 5, 13, 46):
        F = FieldCtx(D)
        eps0 = fundamental_unit(D)
        for f in _enumerate_coprime_ideals(F, QuadIdeal.unit_ideal(F), 30):
            lat = ideal_to_pseudolattice(f)
            ud = unit_mod_f(F, f)
            k = 1
            while not (lat.contains(eps0 ** k - 1) or lat.contains(eps0 ** k + 1)):
                k += 1
            assert ud.order == k, (D, f)
            sign = 1 if lat.contains(eps0 ** k - 1) else -1
            assert ud.eps_f == sign * eps0 ** k
            assert ud.minus_one_in_ef == lat.contains(F.elem(2))
