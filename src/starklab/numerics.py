"""Precision-tracked arithmetic kernel: precision contexts, the √(-iv) branch,
the trapezoid rule with nested halving and error control, numeric
differentiation, ordered compensated summation, and the upper incomplete
gamma function used by the zeta continuation."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp


@dataclass(frozen=True)
class PrecisionCtx:
    """Working precision (mantissa bits), absolute error target, term cap."""

    work_bits: int = 128
    target_abs_err: float = 1e-30
    max_terms: int = 50_000_000

    def __post_init__(self):
        if self.work_bits < 64:
            raise ValueError("work_bits must be >= 64")
        if not self.target_abs_err > 0:
            raise ValueError("target_abs_err must be positive")
        if self.max_terms <= 0:
            raise ValueError("max_terms must be positive")

    @property
    def dps(self) -> int:
        return int(self.work_bits * 0.30103) + 2

    def refined(self, factor: float = 2.0) -> "PrecisionCtx":
        """Same target expressed at a larger working precision."""
        return PrecisionCtx(
            work_bits=int(self.work_bits * factor),
            target_abs_err=self.target_abs_err,
            max_terms=self.max_terms,
        )

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


def numeric_derivative(f, s0, h, ctx: PrecisionCtx = DEFAULT_CTX):
    """5-point central difference f'(s0); error estimated by halving h.
    The two stencils share the points s0 +- h, so f is evaluated six times.
    Returns (value, err_estimate, stable)."""
    with ctx.workprec():
        s0, h = mp.mpf(s0), mp.mpf(h)
        values = {}

        def fv(t):
            if t not in values:
                values[t] = f(t)
            return values[t]

        def stencil(hh):
            return (
                -fv(s0 + 2 * hh) + 8 * fv(s0 + hh) - 8 * fv(s0 - hh) + fv(s0 - 2 * hh)
            ) / (12 * hh)

        d1 = stencil(h)
        d2 = stencil(h / 2)
        err = abs(d1 - d2)
        stable = err <= 10 * ctx.target_abs_err or err <= abs(d2) * 1e-6
        return d2, err, stable


def ordered_sum(terms):
    """Deterministic compensated summation: terms sorted by ascending |term|
    (ties broken by insertion index) then accumulated with mp.fsum."""
    seq = list(terms)
    if not seq:
        return mp.mpf(0)
    order = sorted(range(len(seq)), key=lambda i: (abs(seq[i]), i))
    return mp.fsum(seq[i] for i in order)


def _upper_gamma_cf(a, x):
    """Continued fraction (modified Lentz) for Gamma(a, x), good for x >~ 1."""
    tiny = mp.mpf(2) ** (-mp.mp.prec - 40)
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 20000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < mp.mpf(2) ** (-mp.mp.prec - 4):
            return mp.exp(-x + a * mp.log(x)) * h
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _lower_series(a, x):
    """gamma_lower(a, x) by power series; Re(a) > 0, small x."""
    term = 1 / mp.mpc(a) if mp.im(mp.mpc(a)) else 1 / mp.mpf(a)
    total = term
    ap = a
    for _ in range(20000):
        ap += 1
        term *= x / ap
        total += term
        if abs(term) < abs(total) * mp.mpf(2) ** (-mp.mp.prec - 4):
            return total * mp.exp(-x + a * mp.log(x))
    raise ConvergenceError("incomplete gamma series did not converge")


def _e1_series(x):
    """E1(x) = Gamma(0, x) by the alternating series, small x > 0."""
    total = -mp.euler - mp.log(x)
    term = mp.mpf(1)
    for n in range(1, 20000):
        term *= -x / n
        total -= term / n
        if abs(term / n) < abs(total) * mp.mpf(2) ** (-mp.mp.prec - 4) + mp.mpf(2) ** (
            -mp.mp.prec - 40
        ):
            return total
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
        if x >= max(mp.mpf("1.5"), re_a + 1):
            return +_upper_gamma_cf(a, x)
        is_nonpos_int = a == mp.floor(mp.re(a)) and mp.im(mp.mpc(a)) == 0 and a <= 0
        if is_nonpos_int:
            base_a = mp.mpf(0)
            g = _e1_series(x)
        else:
            steps = int(mp.ceil(mp.mpf("0.25") - re_a))
            steps = max(steps, 0)
            base_a = a + steps
            g = mp.gamma(base_a) - _lower_series(base_a, x)
        b = base_a
        while abs(b - a) > mp.mpf("0.5"):
            b -= 1
            g = (g - mp.exp(-x + b * mp.log(x))) / b
        return +g


def e1(x, ctx: PrecisionCtx = DEFAULT_CTX):
    """Exponential integral E1(x) = Gamma(0, x), x > 0."""
    with ctx.workprec():
        x = mp.mpf(x)
        if x >= mp.mpf("1.5"):
            return +_upper_gamma_cf(mp.mpf(0), x)
        return +_e1_series(x)


def mpf_from_fraction(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator
