import hashlib
import json
import pathlib
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from starklab import numerics
from starklab.numerics import (
    ConvergenceError,
    PrecisionCtx,
    branch_sqrt_neg_iv,
    scaled_upper_gamma,
    trapezoid,
)
from oracles import numeric_derivative

mp.mp.dps = 50

CTX = PrecisionCtx(128, 1e-30)


def test_trapezoid_periodic_integrand():
    # e^{cos x} over one period: 2 pi I0(1), exponential convergence
    val, err, ok = trapezoid(lambda x: mp.exp(mp.cos(x)), 0, 2 * mp.pi, CTX)
    assert ok and err < 1e-30
    assert abs(val - 2 * mp.pi * mp.besseli(0, 1)) < 1e-30


def test_trapezoid_gaussian_on_truncated_line():
    # e^{-pi x^2} e^{-2 pi i x y} is below 1e-49 at |x| = 6, so [-6, 6]
    # carries its whole Fourier transform e^{-pi y^2}
    y = mp.mpf("0.7")
    val, err, ok = trapezoid(
        lambda x: mp.exp(-mp.pi * x * x) * mp.expjpi(-2 * x * y), -6, 6, CTX)
    assert ok and err < 1e-30
    assert abs(val - mp.exp(-mp.pi * y * y)) < 1e-30


def test_numeric_derivative_exp():
    val, err, stable = numeric_derivative(mp.exp, mp.mpf(1), mp.mpf("1e-8"), CTX)
    assert stable
    assert abs(val - mp.e) < 1e-25


def test_numeric_derivative_shares_stencil_points():
    # the stencils at h and h/2 share f(s0 +- h): six evaluations give the
    # same bits as the eight of the two stencils written out
    seen = []

    def f(t):
        seen.append(t)
        return mp.exp(t) * mp.sin(3 * t)

    with CTX.workprec():
        s0, h = mp.mpf("0.3"), mp.mpf("1e-6")
        val, err, stable = numeric_derivative(f, s0, h, CTX)
        assert len(seen) == len(set(seen)) == 6

        def stencil(hh):
            return (-f(s0 + 2 * hh) + 8 * f(s0 + hh) - 8 * f(s0 - hh)
                    + f(s0 - 2 * hh)) / (12 * hh)

        d1, d2 = stencil(h), stencil(h / 2)
        assert val == d2 and err == abs(d1 - d2)


@given(st.floats(-3, 3), st.floats(0.05, 3).filter(lambda y: y > 0.05))
@settings(max_examples=30, deadline=None)
def test_branch_sqrt_squares_back(x, y):
    v = mp.mpc(x, y)
    with CTX.workprec():
        r = branch_sqrt_neg_iv(v, CTX)
        assert abs(r * r - (-1j * v)) < 1e-30
        assert r.real > 0  # principal branch for v in the upper half plane


def _oracle(a, x):
    """x^-a Gamma(a, x) at 400 bits."""
    with mp.workprec(400):
        return mp.gammainc(a, x) * mp.power(x, -a)


def _oracle_error(a, x, bits):
    """Relative error of scaled_upper_gamma at bits against the oracle, in
    units of its bound 2^-(bits+14) (1 + x)."""
    a, x = mp.mpmathify(a), mp.mpf(x)
    mine, = scaled_upper_gamma(a, [x], PrecisionCtx(bits, 1e-30))
    with mp.workprec(400):
        ref = _oracle(a, x)
        return abs(mine - ref) / (mp.ldexp(1 + x, -(bits + 14)) * abs(ref))


@pytest.mark.parametrize("a", [-3, -2, -1, 0, 0.4, -0.6, 1.3, 2, 3.5,
                               mp.mpc(1, 1), mp.mpc(-0.5, 2),
                               mp.mpc(-20, 10), mp.mpc(0.25, -40)])
@pytest.mark.parametrize("x", [0.01, 0.114, 0.5, 1.2, 1.5, 3.0, 20.0, 80.0,
                               1e3, 1e4, 1e5])
def test_upper_gamma_against_oracle(a, x):
    # relative error within 2^-(work_bits+14) (1 + x) of a 400-bit oracle
    for bits in (64, 128, 256):
        assert _oracle_error(a, x, bits) <= 1, bits


H = mp.ldexp(1, -57)  # the complex step of the Stark number at 128 bits
SWEEP_A = [0, mp.mpc(0, H), mp.mpc(0, H / 2), mp.mpc(1, -H), mp.mpc(1, -H / 2),
           1, 2, -1, 0.4]


def _sweep_failures():
    """(bits, a, x, error) wherever the error exceeds its bound, for x on
    both sides of the real and the complex crossover, at 64, 128 and 256
    bits."""
    failures = []
    for bits in (64, 128, 256):
        with PrecisionCtx(bits, 1e-30).workprec():
            edges = [numerics._series_below(mp.mp.prec, real) for real in (True, False)]
        for a in SWEEP_A:
            for edge in edges:
                for f in ("0.5", "0.9", "0.999", "1.001", "1.1", "2"):
                    x = mp.mpf(edge) * mp.mpf(f)
                    err = _oracle_error(a, x, bits)
                    if err > 1:
                        failures.append((bits, a, x, err))
    return failures


def test_upper_gamma_on_both_sides_of_each_crossover():
    assert _sweep_failures() == []


def test_crossover_sweep_fails_without_the_series_guard_bits(monkeypatch):
    # the E1 series' terms reach e^x before they cancel to e^-x / x: without
    # the bits that carry this, the sweep fails below the real crossover
    monkeypatch.setattr(numerics, "_series_guard_bits", lambda x: 0)
    failures = _sweep_failures()
    e1 = [x for bits, a, x, _ in failures if a == 0]
    assert e1 and any(15 < x < 25 for x in e1)
    # the continued fraction above the crossovers does not use them
    with PrecisionCtx(256, 1e-30).workprec():
        edge = numerics._series_below(mp.mp.prec, True)
    assert all(x < edge for _, a, x, _ in failures if not isinstance(a, mp.mpc))


@pytest.mark.parametrize("x", ["0.01", "0.3", "0.79", "1", "1.4", "1.49",
                               "2", "3", "4", "4.4", "4.5", "4.6", "6"])
def test_upper_gamma_near_a_zero_keeps_its_real_part(x):
    # below the complex crossover (0.03 prec, 4.44 at 128 bits) Gamma(ih, x)
    # takes the series at 1 + ih and divides by ih, the complex step of the
    # Stark number at 128 bits (h = 2^-57); the 57 bits that the division
    # cancels are carried as extra precision, or the real part is off by
    # 1e-34 and the imaginary part by 1e-28.  Past it, the continued
    # fraction.
    x = mp.mpf(x)
    for a in (mp.mpc(0, H), mp.mpc(0, H / 2)):
        mine, = scaled_upper_gamma(a, [x], CTX)
        ref = _oracle(a, x)
        with mp.workprec(400):
            assert abs(mine.real - ref.real) < mp.mpf("1e-40")
            assert abs(mine.imag - ref.imag) < mp.mpf("1e-40")


def test_upper_gamma_of_a_sequence_keeps_its_order():
    # unsorted arguments with repeats come back in their order, each value
    # the one of its argument alone; two arguments one ulp apart at the
    # working precision, on the series and the continued fraction's side of
    # both crossovers, are two arguments
    with CTX.workprec():
        pairs = [(x, x + mp.ldexp(1, mp.mag(x) - mp.mp.prec))
                 for x in (mp.mpf(3), mp.mpf(20))]
    (lo, lo_next), (hi, hi_next) = pairs
    xs = [hi, lo, mp.mpf("0.25"), hi_next, lo, hi, lo_next, mp.mpf("0.25")]
    for a in (0, 1.3, mp.mpc(0, H), mp.mpc(1, -H / 2)):
        values = scaled_upper_gamma(a, xs, CTX)
        assert values == [scaled_upper_gamma(a, [x], CTX)[0] for x in xs], a
        assert values[0] != values[3] and values[1] != values[6], a
    assert scaled_upper_gamma(0, [], CTX) == []


def test_e1_against_oracle():
    with mp.workprec(200):
        for x in (0.01, 0.3, 1.0, 2.0, 10.0, 60.0):
            x = mp.mpf(x)
            assert abs(scaled_upper_gamma(0, [x], CTX)[0] - mp.e1(x)) < mp.mpf(10) ** -32


def test_upper_gamma_recurrence_property():
    # Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x}, divided by x^a
    rng = random.Random(3)
    with mp.workprec(180):
        for _ in range(20):
            a = mp.mpf(rng.uniform(-4, 4))
            x = mp.mpf(rng.uniform(0.05, 30))
            lhs = x * scaled_upper_gamma(a + 1, [x], CTX)[0]
            rhs = a * scaled_upper_gamma(a, [x], CTX)[0] + mp.exp(-x)
            assert abs(lhs - rhs) < mp.mpf(10) ** -28 * max(1, abs(lhs))


def test_precision_refinement_self_consistency():
    coarse = PrecisionCtx(96, 1e-20)
    fine = PrecisionCtx(192, 1e-20)
    with mp.workprec(220):
        x = mp.mpf("0.77")
        a = mp.mpf("-1.0")
        va, = scaled_upper_gamma(a, [x], coarse)
        vb, = scaled_upper_gamma(a, [x], fine)
        assert abs(va - vb) < 1e-20


@pytest.mark.parametrize("err", [0.0, float("inf"), float("nan"), 1.0, 1e300])
def test_precision_ctx_requires_a_positive_finite_target(err):
    # a target of 1 or more would pass every gate that scales with it
    with pytest.raises(ValueError, match="positive and finite"):
        PrecisionCtx(128, err)


def test_trapezoid_reports_nonconvergence():
    # the periodic extension of |sin x| is kinked at 0 and pi, so the rule
    # converges only like h^2 and cannot reach 1e-40 within its node cap
    hard = PrecisionCtx(160, 1e-40)
    val, err, ok = trapezoid(lambda x: abs(mp.sin(x)), 0, mp.pi, hard)
    assert not ok
    assert err > 1e-40
    assert abs(val - 2) < err


# The grid whose bits are pinned: a real and complex a on both sides of 0
# and 1, the complex steps +-ih and +-ih/2 with their shifts by 1, and
# x = k/7 from 1/7 to 91 in steps of 3/7, across both crossovers at each
# precision.
PIN_A = [0, 1, mp.mpf(1) / 2, -2, 3, mp.mpc(0, H / 2), mp.mpc(0, -H / 2),
         mp.mpc(0, H), mp.mpc(0, -H), mp.mpc(1, -H / 2), mp.mpc(1, -H),
         mp.mpc(2, 3), mp.mpc(mp.mpf(1) / 2, 1)]
PIN_BITS = (64, 128, 256)
PINNED = pathlib.Path(__file__).resolve().parent / "golden" / "scaled_upper_gamma.json"


def _pinned_digests():
    """Per precision, the sha256 of the repr of every value's _mpf_ or _mpc_
    tuple over the grid, one kernel call per a."""
    digests = {}
    for bits in PIN_BITS:
        ctx = PrecisionCtx(bits, 1e-30)
        with ctx.workprec():
            xs = [mp.mpf(k) / 7 for k in range(1, 638, 3)]
        values = [[getattr(v, "_mpc_", None) or v._mpf_ for v in scaled_upper_gamma(a, xs, ctx)]
                  for a in PIN_A]
        digests[str(bits)] = hashlib.sha256(repr(values).encode()).hexdigest()
    return digests


def test_upper_gamma_bits_are_pinned():
    # every bit of the kernel on the grid is the committed one: a speed-up
    # of the loops may not move a printed digit; after a deliberate change
    # of the kernel's values, rewrite the file with
    # `PYTHONPATH=src python tests/test_numerics.py`
    assert _pinned_digests() == json.loads(PINNED.read_text())


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_pinned_digests(), indent=1) + "\n")

