"""Precision-tracked arithmetic kernel: precision contexts, the √(-iv) branch,
the trapezoid rule with nested halving and error control, and the upper
incomplete gamma function used by the zeta continuation.

The incomplete gamma's three loops (the modified-Lentz continued fraction,
the lower power series and the E1 series) run on Gaussian fixed-point
integers (re, im) scaled by 2^P, where P is the working precision plus 24
guard bits plus the bit length of ceil(x); a real a carries zero imaginary
parts.  Only the prefactor x^a e^{-x} and the final assembly are in mpf."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import to_fixed


@dataclass(frozen=True)
class PrecisionCtx:
    """Working precision (mantissa bits) and absolute error target."""

    work_bits: int = 128
    target_abs_err: float = 1e-30

    def __post_init__(self):
        if self.work_bits < 64:
            raise ValueError("work_bits must be >= 64")
        # a target of 1 or more would pass every gate that scales with it
        if not 0 < self.target_abs_err < 1:
            raise ValueError("target_abs_err must be positive and finite, and below 1")

    @property
    def dps(self) -> int:
        return int(self.work_bits * 0.30103) + 2

    def workprec(self):
        return mp.workprec(self.work_bits + 20)


DEFAULT_CTX = PrecisionCtx()


class ConvergenceError(ArithmeticError):
    """A truncated sum or quadrature could not meet the error target."""


class BoundExceeded(RuntimeError):
    """A search did not close within its configured bound."""


def branch_sqrt_neg_iv(v, ctx: PrecisionCtx = DEFAULT_CTX):
    """sqrt(-iv) on the branch that is positive real for v on the upper
    imaginary axis.  Defined for Im(v) > 0, where -iv has positive real
    part, so the principal square root is the required branch."""
    with ctx.workprec():
        v = mp.mpc(v)
        if not v.imag > 0:
            raise ValueError("branch_sqrt_neg_iv requires Im(v) > 0")
        return mp.sqrt(-1j * v)


# Panels of the first trapezoid estimate, and those past which it gives up.
_TRAPEZOID_START = 16
_TRAPEZOID_CAP = 1024


def trapezoid(f, a, b, ctx: PrecisionCtx = DEFAULT_CTX):
    """Integrate f over [a, b], halving the spacing (f is evaluated only at
    the new midpoints) until the change is below target_abs_err.  Converges
    exponentially for an analytic integrand over a whole period, or one
    negligible with its derivatives at both ends (Trefethen & Weideman, SIAM
    Review 56, 2014).  Returns (value, err_estimate, converged)."""
    with ctx.workprec():
        a, b = mp.mpf(a), mp.mpf(b)
        n = _TRAPEZOID_START
        h = (b - a) / n
        total = (f(a) + f(b)) / 2 + mp.fsum(f(a + k * h) for k in range(1, n))
        prev, err = h * total, mp.inf
        while n < _TRAPEZOID_CAP:
            total += mp.fsum(f(a + (2 * k + 1) * h / 2) for k in range(n))
            n, h = 2 * n, h / 2
            cur = h * total
            err, prev = abs(cur - prev), cur
            if err < ctx.target_abs_err:
                return cur, err, True
        return prev, err, False


# Guard bits of the fixed-point kernel beyond the working precision.
_GUARD_BITS = 24


def _fixed_scale(x) -> int:
    """Fixed-point scale P for an evaluation at x: the working precision,
    the guard bits, and the bits of ceil(x), so that quantities of size 1/x
    keep their relative accuracy as x grows."""
    return mp.mp.prec + _GUARD_BITS + int(mp.ceil(x)).bit_length()


def _to_fixed(v, P: int) -> tuple[int, int]:
    """A real or complex mpmath number as the Gaussian fixed-point pair
    (re, im) of integers, v ~ (re + i im) / 2^P."""
    v = mp.mpc(v)
    return to_fixed(v.real._mpf_, P), to_fixed(v.imag._mpf_, P)


def _from_fixed(zr: int, zi: int, P: int, real: bool):
    """The mpmath number (zr + i zi) / 2^P; an mpf when real."""
    if real:
        return mp.ldexp(zr, -P)
    return mp.mpc(mp.ldexp(zr, -P), mp.ldexp(zi, -P))


def _fx_mul(zr, zi, wr, wi, P):
    """Product of two Gaussian fixed-point numbers at scale 2^P."""
    return (zr * wr - zi * wi) >> P, (zr * wi + zi * wr) >> P


def _fx_div(zr, zi, wr, wi, P):
    """Quotient z / w of two Gaussian fixed-point numbers at scale 2^P."""
    n = wr * wr + wi * wi
    return ((zr * wr + zi * wi) << P) // n, ((zi * wr - zr * wi) << P) // n


def _power_exp(a, x):
    """x^a e^{-x} = exp(a log x - x).  exp turns an absolute error in its
    argument into the same relative error, so the argument is formed with
    the bit length of a bound on its size added to the working precision
    (|log x| <= |mag(x)| + 1)."""
    size = abs(a) * (abs(mp.mag(x)) + 1) + x
    with mp.extraprec(int(size).bit_length()):
        return +mp.exp(-x + a * mp.log(x))


def _upper_gamma_cf(a, x):
    """Gamma(a, x) for x >~ 1 by its continued fraction
    e^{-x} x^a / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))),
    evaluated by modified Lentz (Thompson & Barnett, J. Comput. Phys. 64,
    1986) on Gaussian fixed-point integers; a real a carries zero imaginary
    parts.  Only the prefactor e^{-x} x^a is taken in mpf."""
    prec, real = mp.mp.prec, not isinstance(a, mp.mpc)
    P = _fixed_scale(x)
    one = 1 << P
    ar, ai = _to_fixed(a, P)
    br, bi = to_fixed(x._mpf_, P) + one - ar, -ai
    cr, ci = one << P, 0  # 1/tiny, with tiny one unit in the last place
    dr, di = _fx_div(one, 0, br, bi, P)
    hr, hi = dr, di
    stop = 1 << 2 * P  # |delta - 1| below 2^-(prec+4), squared and scaled
    for i in range(1, 20000):
        anr, ani = i * (ar - i * one), i * ai  # -i (i - a)
        br += 2 * one
        dr, di = _fx_mul(anr, ani, dr, di, P)
        dr, di = dr + br, di + bi
        if not (dr or di):
            dr = 1
        cr, ci = _fx_div(anr, ani, cr, ci, P)
        cr, ci = cr + br, ci + bi
        if not (cr or ci):
            cr = 1
        dr, di = _fx_div(one, 0, dr, di, P)
        er, ei = _fx_mul(dr, di, cr, ci, P)
        hr, hi = _fx_mul(hr, hi, er, ei, P)
        if ((er - one) ** 2 + ei * ei) << 2 * (prec + 4) < stop:
            return _power_exp(a, x) * _from_fixed(hr, hi, P, real)
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _lower_series(a, x):
    """gamma_lower(a, x) = e^{-x} x^a sum_n x^n / (a (a+1) ... (a+n)) for
    Re(a) > 0 and small x, the sum on Gaussian fixed-point integers."""
    prec, real = mp.mp.prec, not isinstance(a, mp.mpc)
    P = _fixed_scale(x)
    one = 1 << P
    ar, ai = _to_fixed(a, P)
    X = to_fixed(x._mpf_, P)
    tr, ti = _fx_div(one, 0, ar, ai, P)
    sr, si = tr, ti
    for n in range(1, 20000):
        tr, ti = _fx_div((tr * X) >> P, (ti * X) >> P, ar + n * one, ai, P)
        sr, si = sr + tr, si + ti
        if (tr * tr + ti * ti) << 2 * (prec + 4) < sr * sr + si * si:
            return _from_fixed(sr, si, P, real) * _power_exp(a, x)
    raise ConvergenceError("incomplete gamma series did not converge")


def _e1_series(x):
    """E1(x) = Gamma(0, x) = -euler - log x - sum_{n>=1} (-x)^n / (n n!)
    for 0 < x < 1.5, the sum in fixed point.  There E1(x) > 0.1, so the sum
    is carried to an absolute 2^-(prec+8)."""
    prec = mp.mp.prec
    P = _fixed_scale(x)
    X = to_fixed(x._mpf_, P)
    term, total = 1 << P, 0
    for n in range(1, 20000):
        term = -((term * X) >> P) // n
        total += term // n
        if abs(term) << (prec + 8) < n << P:
            return -mp.euler - mp.log(x) - mp.ldexp(total, -P)
    raise ConvergenceError("E1 series did not converge")


def upper_gamma(a, x, ctx: PrecisionCtx = DEFAULT_CTX):
    """Upper incomplete gamma Gamma(a, x) for real x > 0 and real/complex a.

    Strategy: continued fraction for large x; for small x a power series at a
    base parameter with positive real part, transported to a by the downward
    recurrence Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a, with the a = 0
    column seeded by the E1 series."""
    with ctx.workprec():
        x = mp.mpf(x)
        if not x > 0:
            raise ValueError("upper_gamma requires x > 0")
        a = mp.mpc(a)
        if a.imag == 0:
            a = a.real
        re_a = mp.re(a)
        if x >= 1.5 and x >= re_a + 1:
            return +_upper_gamma_cf(a, x)
        is_nonpos_int = a == mp.floor(mp.re(a)) and mp.im(mp.mpc(a)) == 0 and a <= 0
        steps = 0 if is_nonpos_int else max(int(mp.ceil(0.25 - re_a)), 0)
        # each step of the recurrence divides a difference by b, which loses
        # log2(1/|b|) bits when b is small (a = ih at a complex step): they
        # are carried as extra precision
        nearest = min((abs(a + k) for k in range(steps)), default=1)
        with mp.extraprec(max(0, -mp.mag(nearest))):
            if is_nonpos_int:
                base_a = mp.mpf(0)
                g = _e1_series(x)
            else:
                base_a = a + steps
                g = mp.gamma(base_a) - _lower_series(base_a, x)
            b = base_a
            while abs(b - a) > 0.5:
                b -= 1
                g = (g - _power_exp(b, x)) / b
        return +g


def mpf_from_fraction(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator
