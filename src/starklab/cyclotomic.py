"""Zeta values of rational congruence classes and their trigonometric
identities.

For 0 < m < n the class function is

    zeta_(m,n)(s) = sum over k in (m + n Z), k != 0, of |k|^{-s}
                  = n^{-s} ( zeta_H(s, m/n) + zeta_H(s, 1 - m/n) ),

whose derivative at s = 0 satisfies exp(-2 zeta'_(m,n)(0)) = 4 sin^2(m pi/n).
The Hurwitz zeta function is one Euler-Maclaurin kernel for real and
complex s: its head length and Bernoulli term count come from a proven
bound on the remainder, and the Bernoulli sum runs on integers scaled by
2^P, the convention of the numerics module.
The same numbers 4 cos^2(pi/n) appear as the discrete part of the Jones
index set and (shifted) as the critical Temperley-Lieb parameters; both are
provided here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import mpf_bernoulli, pi_fixed, to_fixed

from .numerics import _GUARD_BITS, PrecisionCtx, DEFAULT_CTX


@dataclass(frozen=True)
class CongruenceClass:
    m: int
    n: int

    def __post_init__(self):
        if not (0 < self.m < self.n):
            raise ValueError("need 0 < m < n, got (%s, %s)" % (self.m, self.n))


class TauUndefined(ValueError):
    """The critical Temperley-Lieb parameter is undefined (cosine zero)."""


# Cost of one head term, an mp.power at about 150 bits, in steps of the
# Bernoulli loop (CPython 3.11): the trade that picks N and M.
_HEAD_COST_REAL = 4
_HEAD_COST_COMPLEX = 12
_LOG_TWO_PI_SQ = 2 * math.log(2 * math.pi)


def _euler_maclaurin_cut(s, a: float, tol: float, sr: int, one: int) -> tuple[int, int]:
    """A head length N and a Bernoulli term count M whose remainder is at
    most tol, by Johansson's bound (Numer. Algorithms 69, 2015, Thm. 1):

      |R(N, M)| <= 4 |(s)_2M| (N+a)^(1-sigma-2M) / ((2 pi)^2M (sigma+2M-1))

    for sigma = Re s and sigma + 2M > 1.  It follows from |B_2M(t - floor t)|
    <= 4 (2M)! / (2 pi)^2M in the integral form of the remainder, and holds
    for complex s.  For each M the least N + a follows in closed form; M
    grows while one more term saves more head terms than it costs.

    When the factor s + i of the Pochhammer symbol is exactly 0 (s a
    nonpositive integer, read from its fixed-point value sr = s one, with
    one = 2^P), the terms from (s)_(i+1) on and the remainder vanish:
    N = 0, and M counts the ceil(i/2) terms before.  Otherwise N = 0 only
    where the bound holds at x = a itself."""
    sigma, tau = float(s.real), float(s.imag)
    if not tau and sr <= 0 and not sr % one:
        return 0, (-sr // one + 1) // 2
    head = _HEAD_COST_COMPLEX if tau else _HEAD_COST_REAL
    # the rounding of sigma to a float, so that each factor |s + i| is
    # bounded from above
    eps = 2.0 ** -50 * (1 + abs(sigma))
    log_scale = math.log(tol / 4)
    log_poch = 0.0  # log |(s)_2M| - 2M log(2 pi)
    x = math.inf
    M = 0
    while True:
        M += 1
        log_poch += math.log((math.hypot(sigma + 2 * M - 2, tau) + eps)
                             * (math.hypot(sigma + 2 * M - 1, tau) + eps)) - _LOG_TWO_PI_SQ
        e = sigma + 2 * M - 1
        if e <= 0:
            continue
        # the least x = N + a with R <= tol at this M (capped below the
        # float range, where the next M is taken anyway); compared with a in
        # logs, as at a huge sigma it lies just above a and rounds to it
        log_x = (log_poch - math.log(e) - log_scale) / e
        if log_x <= math.log(a):
            return 0, M
        x_next = math.exp(min(log_x, 700))
        if head * (x - x_next) < 1:
            return max(1, math.ceil(x - a)), M - 1
        x = x_next


def _bernoulli_sum(sr: int, si: int, X: int, M: int, P: int) -> tuple[int, int]:
    """sum_{1<=j<=M} c_j w_j, c_j = B_2j (2 pi)^2j / (2j)! and
    w_j = (s)_(2j-1) / (2 pi x)^2j, on integers scaled by 2^P, with s the
    Gaussian pair (sr, si) and x = X.  |c_j| = 2 zeta(2j) < 3.3, so w_j
    carries the size of each term and reaches 0 only below the scale.  The
    B_2j come from mpmath's table, which is filled in order of j and kept
    for the precision."""
    F = 4 * pi_fixed(P) ** 2 >> P  # (2 pi)^2
    Y = F * X * X >> 2 * P  # (2 pi x)^2
    one = 1 << P
    wr, wi = (sr << P) // Y, (si << P) // Y
    tp, fact = F, 2  # (2 pi)^2j and (2j)!
    tr = ti = 0
    for j in range(1, M + 1):
        c = to_fixed(mpf_bernoulli(2 * j, P), P) * tp // fact >> P
        tr += c * wr >> P
        ti += c * wi >> P
        # w_(j+1) = w_j (s + 2j - 1)(s + 2j) / (2 pi x)^2
        pr, qr = sr + (2 * j - 1) * one, sr + 2 * j * one
        fr, fi = (pr * qr - si * si) >> P, si * (pr + qr) >> P
        wr, wi = (wr * fr - wi * fi) // Y, (wr * fi + wi * fr) // Y
        tp = tp * F >> P
        fact *= (2 * j + 1) * (2 * j + 2)
    return tr, ti


def hurwitz_zeta(s, a, ctx: PrecisionCtx = DEFAULT_CTX):
    """Hurwitz zeta zeta_H(s, a) = sum_{k>=0} (k+a)^{-s} for a > 0 and real
    or complex s != 1, continued by Euler-Maclaurin at x = N + a:

      zeta_H(s,a) = sum_{k<N} (k+a)^{-s} + x^{1-s}/(s-1) + x^{-s}/2
                   + x^{1-s} sum_{1<=j<=M} c_j w_j + R(N, M),
      c_j = B_2j (2 pi)^2j / (2j)!,   w_j = (s)_(2j-1) / (2 pi x)^2j.

    N and M come before any term is summed, from a bound on R that holds
    for complex s (_euler_maclaurin_cut): the cheapest pair with |R| below
    target_abs_err / 2^10.  At a nonpositive integer s the Pochhammer symbol
    is exactly 0 from (s)_(1-s) on, so the sum ends exactly and N = 0; at
    s = 0 no term is summed, and the value is x/(s-1) + 1/2 at x = a.

    The head is summed by mp.power.  The Bernoulli sum runs on integers
    scaled by 2^P, P the working precision plus the guard bits, as Gaussian
    pairs (re, im) (_bernoulli_sum).  Its rounding is then below that of
    x^{1-s}/(s-1), to which it adds."""
    with ctx.workprec():
        s = +mp.mpmathify(s)
        a = mp.mpf(a)
        if not a > 0:
            raise ValueError("hurwitz_zeta requires a > 0")
        if s == 1:
            raise ZeroDivisionError("hurwitz_zeta has a pole at s = 1")
        if not (math.isfinite(float(s.real)) and math.isfinite(float(s.imag))):
            raise ValueError("hurwitz_zeta requires s with finite float parts, got %s" % s)
        if isinstance(s, mp.mpc) and not s.imag:
            s = s.real
        real = not isinstance(s, mp.mpc)
        P = mp.mp.prec + _GUARD_BITS
        sr, si = to_fixed(s.real._mpf_, P), to_fixed(s.imag._mpf_, P)
        N, M = _euler_maclaurin_cut(s, float(a), ctx.target_abs_err * 2.0 ** -10, sr, 1 << P)
        x = N + a
        tr, ti = _bernoulli_sum(sr, si, to_fixed(x._mpf_, P), M, P)
        head = mp.fsum(mp.power(k + a, -s) for k in range(N))
        p = mp.power(x, 1 - s)
        tail = mp.ldexp(tr, -P) if real else mp.mpc(mp.ldexp(tr, -P), mp.ldexp(ti, -P))
        return +(head + p / (s - 1) + p / x / 2 + p * tail)


def hurwitz_zeta_prime0(a, ctx: PrecisionCtx = DEFAULT_CTX):
    """d/ds zeta_H(s, a) at s = 0, analytically: log Gamma(a) - log(2 pi)/2."""
    with ctx.workprec():
        a = mp.mpf(a)
        return +(mp.loggamma(a) - mp.log(2 * mp.pi) / 2)


def zeta_mn(c: CongruenceClass, s, ctx: PrecisionCtx = DEFAULT_CTX):
    """zeta_(m,n)(s) via the Hurwitz decomposition; s != 1."""
    with ctx.workprec():
        s = mp.mpmathify(s)
        a = mp.mpf(c.m) / c.n
        val = mp.power(c.n, -s) * (
            hurwitz_zeta(s, a, ctx) + hurwitz_zeta(s, 1 - a, ctx)
        )
        return +val


def zeta_mn_prime0(c: CongruenceClass, ctx: PrecisionCtx = DEFAULT_CTX):
    """zeta'_(m,n)(0) by the chain rule on the decomposition:
    -log(n) * zeta_(m,n)(0) + zeta_H'(0, m/n) + zeta_H'(0, 1 - m/n)."""
    with ctx.workprec():
        a = mp.mpf(c.m) / c.n
        z0 = hurwitz_zeta(mp.mpf(0), a, ctx) + hurwitz_zeta(mp.mpf(0), 1 - a, ctx)
        val = (
            -mp.log(c.n) * z0
            + hurwitz_zeta_prime0(a, ctx)
            + hurwitz_zeta_prime0(1 - a, ctx)
        )
        return +val


def stark_q(c: CongruenceClass, ctx: PrecisionCtx = DEFAULT_CTX):
    """Both sides of exp(-2 zeta'_(m,n)(0)) = 4 sin^2(m pi / n).

    The left side uses the analytic derivative of the Hurwitz decomposition;
    the right side is evaluated directly.  Returns (lhs, rhs)."""
    with ctx.workprec():
        lhs = mp.exp(-2 * zeta_mn_prime0(c, ctx))
        rhs = 4 * mp.sin(mp.pi * c.m / c.n) ** 2
        return +lhs, +rhs


def tl_critical(m: int, n: int, ctx: PrecisionCtx = DEFAULT_CTX):
    """Critical Temperley-Lieb parameter tau with tau^{-1} = 4 cos^2(m pi/(n+1)),
    1 <= m <= n.  Raises TauUndefined when the cosine vanishes (2m = n+1)."""
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    if 2 * m == n + 1:
        raise TauUndefined("cos(m pi/(n+1)) = 0: tau undefined for m=%d, n=%d" % (m, n))
    with ctx.workprec():
        cval = mp.cos(mp.pi * m / (n + 1))
        return +(1 / (4 * cval * cval))


def jones_index_member(x, tol=1e-12, ctx: PrecisionCtx = DEFAULT_CTX):
    """Membership of x >= 0 in {4 cos^2(pi/n) : n >= 3} union [4, inf).

    Returns (member: bool, witness).  The witness is the matching integer n
    for the discrete part and None for the continuous part.  The discrete
    values increase from 1 (n = 3) toward 4, so the search stops at the
    first n with 4 cos^2(pi/n) > x + tol; that bound is
    n <= ceil(pi / acos(sqrt((x + tol)/4))) + 1."""
    with ctx.workprec():
        x = mp.mpf(x)
        tol = mp.mpf(tol)
        if x < 0:
            raise ValueError("jones_index_member requires x >= 0")
        if x >= 4 - tol:
            return True, None
        n = 3
        while True:
            v = 4 * mp.cos(mp.pi / n) ** 2
            if abs(x - v) <= tol:
                return True, n
            if v > x + tol:
                return False, None
            n += 1
