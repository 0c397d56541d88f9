"""Precision-tracked arithmetic kernel: precision contexts, the √(-iv) branch,
the trapezoid rule with nested halving and error control, and the scaled
upper incomplete gamma function x^-a Gamma(a, x) used by the zeta
continuation.

The incomplete gamma picks its method by comparing x with the working
precision (Gautschi, ACM TOMS 5, 1979): past a crossover, a private function
of the precision (about 0.12 prec for a real a, 0.03 prec for a complex a),
the modified-Lentz continued fraction; below it, the lower power series or
the E1 series.  The loops run on integers scaled by 2^P, where P is the
working precision plus 24 guard bits plus the bit length of ceil(x): the
continued fraction has a real loop for a real a and a loop on Gaussian
pairs (re, im) for a complex a, and the lower series one Gaussian loop,
which a real a enters as (a, 0).  The series' terms grow to about e^x
before they cancel, so below the crossover the precision carries
floor(x log2 e) + 2 bitlen(x) more bits.  The fraction's result is
multiplied by the real e^-x alone, with no power of x; the series adds
x^-b Gamma(b) at its base parameter b."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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


# Guard bits of the fixed-point loops beyond the working precision.
_GUARD_BITS = 24
_LOG2E = 1.4426950408889634


def _fixed_scale(x) -> int:
    """Fixed-point scale P for an evaluation at x: the working precision,
    the guard bits, and the bits of ceil(x), so that quantities of size 1/x
    keep their relative accuracy as x grows.  ceil(x) comes from the
    mantissa and exponent of x >= 0."""
    _, man, exp, _ = x._mpf_
    ceil = man << exp if exp >= 0 else -(-man >> -exp)
    return mp.mp.prec + _GUARD_BITS + ceil.bit_length()


def _to_fixed(v, P: int) -> tuple[int, int]:
    """A complex mpmath number as the Gaussian fixed-point pair (re, im) of
    integers, v ~ (re + i im) / 2^P."""
    return to_fixed(v.real._mpf_, P), to_fixed(v.imag._mpf_, P)


def _series_below(prec: int, real: bool) -> float:
    """The x below which the series is cheaper than the continued fraction
    at prec bits.  The fraction takes about (prec log 2)^2 / (16 x) steps of
    three products and two quotients (twenty products and four quotients
    for a complex a), the series a number of steps that grows like e x, of
    one product and one or two quotients; a complex a adds Gamma(a) and a
    complex power to the series.  Timed on pure-Python integers (CPython
    3.11) at 64, 128 and 256 bits, the two cost the same at 0.10-0.12 prec
    for a = 0 and at 0.025-0.045 prec for a = ih."""
    return (0.12 if real else 0.03) * prec


def _series_guard_bits(x) -> int:
    """Bits that the series cancels at x: its terms grow to about e^x,
    while x^-a Gamma(a, x) is about e^-x / x."""
    return int(x * _LOG2E) + 2 * (int(x) + 1).bit_length()


def _power(x, e):
    """x^e = exp(e log x).  exp turns an absolute error in its argument
    into the same relative error, so the argument is formed with the bit
    length of a bound on its size added to the working precision
    (|log x| <= |mag(x)| + 1)."""
    size = abs(e) * (abs(mp.mag(x)) + 1)
    with mp.extraprec(int(size).bit_length()):
        return +mp.exp(e * mp.log(x))


def _continued_fraction(a, x):
    """e^x x^-a Gamma(a, x) for x >~ 1 by its continued fraction
    1/(x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))), evaluated by modified
    Lentz (Thompson & Barnett, J. Comput. Phys. 64, 1986) on integers
    scaled by 2^P: a real loop for a real a, and one on Gaussian pairs
    (re, im) for a complex a.  For a positive integer a the fraction ends
    after a steps.  The partial numerators -i (i - a) follow the integer
    recurrence a_i = a_(i-1) + (a - (2i - 1)), exactly."""
    prec, P = mp.mp.prec, _fixed_scale(x)
    P2 = 2 * P
    one, two, one2 = 1 << P, 2 << P, 1 << P2
    X = to_fixed(x._mpf_, P)
    if not isinstance(a, mp.mpc):
        A = to_fixed(a._mpf_, P)
        b = X + one - A
        c = one2  # 1/tiny, with tiny one unit in the last place
        d = h = one2 // b
        tol = one >> prec + 4  # |e - 1| below 2^-(prec+4)
        an, step = 0, A - one
        for _ in range(1, 20000):
            an += step  # -i (i - a)
            step -= two
            b += two
            d = one2 // (b + (an * d >> P) or 1)
            c = b + (an << P) // c or 1
            e = d * c >> P
            h = h * e >> P
            if abs(e - one) < tol:
                return mp.ldexp(h, -P)
        raise ConvergenceError("incomplete gamma continued fraction did not converge")
    ar, ai = _to_fixed(a, P)
    br, bi = X + one - ar, -ai
    cr, ci = one2, 0
    n = br * br + bi * bi
    hr, hi = dr, di = (br << P2) // n, (-bi << P2) // n
    tol = one2 >> 2 * (prec + 4)  # |e - 1|^2, scaled by 2^2P
    # |Re(e - 1)| < root is necessary for |e - 1|^2 < tol
    root = isqrt(tol - 1) + 1
    anr, ani, step = 0, 0, ar - one
    for _ in range(1, 20000):
        anr += step
        step -= two
        ani += ai
        br += two
        dr, di = br + ((anr * dr - ani * di) >> P), bi + ((anr * di + ani * dr) >> P)
        if not (dr or di):
            dr = 1
        n = cr * cr + ci * ci
        cr, ci = (br + ((anr * cr + ani * ci) << P) // n,
                  bi + ((ani * cr - anr * ci) << P) // n)
        if not (cr or ci):
            cr = 1
        n = dr * dr + di * di
        dr, di = (dr << P2) // n, (-di << P2) // n
        er, ei = (dr * cr - di * ci) >> P, (dr * ci + di * cr) >> P
        hr, hi = (hr * er - hi * ei) >> P, (hr * ei + hi * er) >> P
        er -= one
        if -root < er < root and er * er + ei * ei < tol:
            return mp.mpc(mp.ldexp(hr, -P), mp.ldexp(hi, -P))
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _lower_series(b, x):
    """sum_n x^n / (b (b+1) ... (b+n)) for Re(b) > 0, so that
    x^-b gamma_lower(b, x) = e^-x times it, on Gaussian pairs of integers
    scaled by 2^P.  A real b enters as (b, 0), where each quotient
    floor(t x b / b^2) is a real loop's floor(t x / b): the result is real."""
    prec, P = mp.mp.prec, _fixed_scale(x)
    one = 1 << P
    X = to_fixed(x._mpf_, P)
    br, bi = _to_fixed(b, P)
    n = br * br + bi * bi
    sr, si = tr, ti = (br << 2 * P) // n, (-bi << 2 * P) // n
    for _ in range(1, 20000):
        br += one
        zr, zi = tr * X, ti * X
        n = br * br + bi * bi
        tr, ti = (zr * br + zi * bi) // n, (zi * br - zr * bi) // n
        sr, si = sr + tr, si + ti
        if (tr * tr + ti * ti) << 2 * (prec + 4) < sr * sr + si * si:
            re = mp.ldexp(sr, -P)
            return mp.mpc(re, mp.ldexp(si, -P)) if isinstance(b, mp.mpc) else re
    raise ConvergenceError("incomplete gamma series did not converge")


def _e1_series(x):
    """E1(x) = Gamma(0, x) = -euler - log x - sum_{n>=1} (-x)^n / (n n!),
    the sum in fixed point until its terms vanish at the scale 2^-P."""
    P = _fixed_scale(x)
    u = -to_fixed(x._mpf_, P)
    t = total = u
    n = 2
    while t:
        t = (t * u >> P) // n
        total += t // n
        n += 1
    return -mp.euler - mp.log(x) - mp.ldexp(total, -P)


def scaled_upper_gamma(a, xs, ctx: PrecisionCtx = DEFAULT_CTX) -> list:
    """x^-a Gamma(a, x), the upper incomplete gamma function divided by x^a,
    for real or complex a (E1(x) at a = 0), at each real x > 0 of the
    sequence xs in its order, each distinct x evaluated once.

    Where x >= Re(a) + 1 and x is past _series_below (or a is a positive
    integer), e^-x times the continued fraction.  Elsewhere a series at a
    base parameter b = a + k with Re(b) > 0, x^-b Gamma(b) - e^-x
    sum_n x^n / (b)_(n+1), or E1 for a nonpositive integer a, carried down
    to a by x^-(b-1) Gamma(b-1, x) = (x x^-b Gamma(b, x) - e^-x) / (b-1)."""
    with ctx.workprec():
        xs = [mp.mpf(x) for x in xs]
        if not all(x > 0 for x in xs):
            raise ValueError("scaled_upper_gamma requires x > 0")
        a = mp.mpmathify(a)
        if isinstance(a, mp.mpc) and not a.imag:
            a = a.real
        real = not isinstance(a, mp.mpc)
        re_a = a if real else a.real
        integer = real and a == int(a)
        # the continued fraction from here on: Re(a) + 1, and past the
        # crossover unless a is a positive integer
        cut = re_a + 1
        if not (integer and a > 0):
            cut = max(cut, mp.mpf(_series_below(mp.mp.prec, real)))
        e1 = integer and a <= 0
        steps = -int(a) if e1 else max(int(mp.ceil(0.25 - re_a)), 0)
        divisors = [a + k for k in range(steps - 1, -1, -1)]
        values = {}
        for key, x in {x._mpf_: x for x in xs}.items():
            if x >= cut:
                # the product is rounded at the working precision
                values[key] = mp.exp(-x) * _continued_fraction(a, x)
                continue
            # a step multiplies the error by about max(1, x)/|b-1|, 2^57 when
            # b - 1 = ih at a complex step: the bits it loses are carried as
            # extra precision, with those the series cancels
            size = max(mp.mag(x), 1)
            extra = sum(max(0, size - mp.mag(d)) for d in divisors)
            with mp.extraprec(extra + _series_guard_bits(x)):
                base, ex = a + steps, mp.exp(-x)
                if e1:
                    g = _e1_series(x)
                else:
                    g = _power(x, -base) * mp.gamma(base) - ex * _lower_series(base, x)
                for d in divisors:
                    g = (x * g - ex) / d
            values[key] = +g
        return [values[x._mpf_] for x in xs]


def mpf_from_fraction(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator
