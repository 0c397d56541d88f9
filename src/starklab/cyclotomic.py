"""Zeta values of rational congruence classes and their trigonometric
identities.

For 0 < m < n the class function is

    zeta_(m,n)(s) = sum over k in (m + n Z), k != 0, of |k|^{-s}
                  = n^{-s} ( zeta_H(s, m/n) + zeta_H(s, 1 - m/n) ),

whose derivative at s = 0 satisfies exp(-2 zeta'_(m,n)(0)) = 4 sin^2(m pi/n).
The same numbers 4 cos^2(pi/n) appear as the discrete part of the Jones
index set and (shifted) as the critical Temperley-Lieb parameters; both are
provided here.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .numerics import ConvergenceError, PrecisionCtx, DEFAULT_CTX


@dataclass(frozen=True)
class CongruenceClass:
    m: int
    n: int

    def __post_init__(self):
        if not (0 < self.m < self.n):
            raise ValueError("need 0 < m < n, got (%s, %s)" % (self.m, self.n))


class TauUndefined(ValueError):
    """The critical Temperley-Lieb parameter is undefined (cosine zero)."""


def hurwitz_zeta(s, a, ctx: PrecisionCtx = DEFAULT_CTX):
    """Hurwitz zeta zeta_H(s, a) = sum_{k>=0} (k+a)^{-s} for a > 0, continued
    to all s != 1 by Euler-Maclaurin:

      zeta_H(s,a) = sum_{k<N} (k+a)^{-s} + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
                   + sum_{j>=1} B_{2j}/(2j)! * (s)_{2j-1} (N+a)^{-s-2j+1},

    truncated when the correction terms drop below the target error; the
    tail of the Bernoulli sum is bounded by its first omitted term (times a
    modulus factor for complex s)."""
    with ctx.workprec():
        s = mp.mpmathify(s)
        a = mp.mpf(a)
        if not a > 0:
            raise ValueError("hurwitz_zeta requires a > 0")
        if s == 1:
            raise ZeroDivisionError("hurwitz_zeta has a pole at s = 1")
        tol = mp.mpf(ctx.target_abs_err) * mp.mpf(2) ** (-10)
        # base offset: large enough that the asymptotic series converges
        # well before the Bernoulli numbers take over
        N = int(max(10, abs(mp.im(s)) * 0.6 + mp.mp.prec * 0.12 + 8))
        for _ in range(4):
            head = mp.fsum(mp.power(k + a, -s) for k in range(N))
            base = N + a
            total = head + mp.power(base, 1 - s) / (s - 1) + mp.power(base, -s) / 2
            # Bernoulli correction sum
            poch = s  # (s)_{2j-1} for j = 1
            powb = mp.power(base, -s - 1)
            ok = False
            prev = mp.inf
            for j in range(1, 300):
                term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * poch * powb
                total += term
                mag = abs(term)
                if mag <= tol:
                    ok = True
                    break
                if mag > prev:
                    break  # asymptotic series started diverging
                prev = mag
                poch *= (s + 2 * j - 1) * (s + 2 * j)
                powb /= base * base
            if ok:
                return +total if mp.im(s) else mp.mpf(mp.re(total))
            N *= 2
        raise ConvergenceError("Euler-Maclaurin tail did not reach target")


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
