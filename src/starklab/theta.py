"""Theta functions on both sides of the averaging identity: the complex
lattice theta (a sign-weighted Gaussian sum with shift characters), the
real-multiplication theta summed over unit-orbit representatives, the
Fourier/Poisson toolkit for the Gaussian family, and the two functional
equations that drive the zeta continuation.  Both integrals, the geodesic
average and the Fourier transform, use the trapezoid rule.

Neither sum makes a transcendental call per point.  The complex theta
makes eight per sum: it reduces the basis (Lagrange-Gauss, as Deconinck et
al., Math. Comp. 73, 2004, reduce first) and walks the whole disk by its
row recurrence on Gaussian integers scaled by 2^P.  The real-multiplication
theta makes one per norm: it reads norm_coefficients, one exact coefficient
per norm of fold_by_norm, as does the zeta continuation in stark (a spec at
v = i t and its dual_spec).  The walk sums exact integers and mp.fsum adds
mantissas exactly, so neither sorts its terms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import fzero, from_man_exp, mpf_add, mpf_mul, round_nearest, to_fixed

from .numerics import (
    _GUARD_BITS,
    _LOG2E,
    ConvergenceError,
    DEFAULT_CTX,
    PrecisionCtx,
    _to_fixed,
    branch_sqrt_neg_iv,
    mpf_from_fraction,
    trapezoid,
)
from .hecke import HeckeLattice, embed_pair, hecke_lattice, scalar_product
from .pseudolattice import (
    Pseudolattice,
    _characters,
    _gauss_reduce,
    _unit_log,
    coset_slice_reps,  # noqa: F401  (unused; bench/test_bench.py traces this import site)
    coset_slice_rows,
    delta,
    dual,
    fold_by_norm,
)
from .quadfield import QuadElem


# Lattice points theta_complex's disk may hold before it gives up.
_MAX_TERMS = 50_000_000


class ThetaValue(NamedTuple):
    value: object  # mpc
    tail_bound: object  # mpf


def _frac_mod1(q: Fraction) -> Fraction:
    return q - (q.numerator // q.denominator)


def _frac_mod2(q: Fraction) -> Fraction:
    # reduce modulo 2 (the period of e^{pi i q})
    return q - 2 * (q.numerator // (2 * q.denominator))


@dataclass
class RMThetaSpec:
    """Data of the unit-averaged theta: pseudolattice L, shift l0, character
    parameter m0, coefficient eta = eta0 + i eta1, totally positive unit
    epsU > 1 generating the averaging group U, and v with Im(v) > 0."""

    L: Pseudolattice
    l0: QuadElem
    m0: QuadElem
    eta: complex
    epsU: QuadElem
    v: complex

    def validate(self):
        if not mp.im(mp.mpc(self.v)) > 0:
            raise ValueError("v must lie in the upper half plane")
        e = self.epsU
        if not (e.is_totally_positive() and e > QuadElem(e.D, 1)):
            raise ValueError("epsU must be totally positive and > 1")
        if e.norm() != 1:
            raise ValueError("epsU must have norm 1")
        L, l0, m0 = self.L, self.l0, self.m0
        if not (L.contains(e * L.l1) and L.contains(e * L.l2)):
            raise ValueError("epsU does not stabilize L")
        if not L.contains(e * l0 - l0):
            raise ValueError("epsU does not stabilize the coset l0 + L")
        # character invariance: tr((eps-1) x m0') must be integral for
        # x in {l1, l2, l0}
        for x in (L.l1, L.l2, l0):
            tr = (((e - 1) * x) * m0.conjugate()).trace()
            if _frac_mod1(tr) != 0:
                raise ValueError("epsU breaks the m0-character")

    def dual_spec(self) -> "RMThetaSpec":
        """Spec on the other side of the functional equation: dual
        pseudolattice, swapped shifts [m0; -l0], eta -> i*conj(eta),
        v -> -1/v."""
        v = mp.mpc(self.v)
        return RMThetaSpec(
            L=dual(self.L),
            l0=self.m0,
            m0=-self.l0,
            eta=1j * mp.conj(mp.mpc(self.eta)),
            epsU=self.epsU,
            v=-1 / v,
        )


@dataclass
class ComplexThetaSpec:
    """Data of the complex-lattice theta: a Hecke lattice (or explicit
    generator pair), shifts lambda0/mu0, coefficient eta, and v."""

    lattice: object  # HeckeLattice or (gen1, gen2)
    lambda0: complex
    mu0: complex
    eta: complex
    v: complex

    def gens(self):
        if isinstance(self.lattice, HeckeLattice):
            return self.lattice.gen1, self.lattice.gen2
        g1, g2 = self.lattice
        return mp.mpc(g1), mp.mpc(g2)


def _disk_rows(h1, h2, lam0, R):
    """The lattice points lam0 + a h1 + b h2 in the disk |z| <= R, row by
    row, in float64 with a relative margin: (a, lo, hi, bstar) for each
    nonempty row lo <= b <= hi, bstar the integer nearest the row's
    minimiser of |z|.  Raises ConvergenceError, before any row is solved,
    when the rows are not finite or more than _MAX_TERMS."""
    f1, f2, fl0 = complex(h1), complex(h2), complex(lam0)
    Rf = float(R) * (1 + 1e-12) + 1e-300
    n2 = f2.real * f2.real + f2.imag * f2.imag
    # row a lies on a line at distance |off + a cross| / |h2| from 0
    cross = (f1 * f2.conjugate()).imag
    off = (fl0 * f2.conjugate()).imag
    span = Rf * math.sqrt(n2) / abs(cross)
    if not (math.isfinite(off / cross) and 2 * span <= _MAX_TERMS):
        raise ConvergenceError("term cap exceeded: the disk spans %.3g rows" % (2 * span))
    rows = []
    for a in range(math.floor(-off / cross - span), math.ceil(-off / cross + span) + 1):
        p = (fl0 + a * f1) * f2.conjugate()
        disc = Rf * Rf * n2 - p.imag * p.imag
        if disc < 0:
            continue
        mid, half = -p.real / n2, math.sqrt(disc) / n2
        lo, hi = math.ceil(mid - half), math.floor(mid + half)
        if lo <= hi:
            rows.append((a, lo, hi, min(max(math.floor(mid + 0.5), lo), hi)))
    return rows


def _walk_guard_bits(sigma, n1, n2) -> int:
    """Bits that the fixed-point truncations of theta_complex's walk can
    cost at sigma = Im(v) on a reduced basis with n1 = |h1|^2 and
    n2 = |h2|^2: ceil(2 pi sigma (n1 + n2) log2 e), as derived there."""
    return math.ceil(2 * math.pi * float(sigma) * float(n1 + n2) * _LOG2E)


def theta_complex(spec: ComplexThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX) -> ThetaValue:
    """Sum of ((lambda0+lambda) . eta) e^{pi i v |lambda0+lambda|^2}
    e^{-2 pi i (lambda . mu0) - pi i (lambda0 . mu0)} over the lattice,
    truncated at |lambda0 + lambda| <= R with a Gaussian shell tail bound.

    The basis is Lagrange-Gauss reduced first, with h2 its shortest vector,
    and the disk is cut into rows z = lambda0 + a h1 + b h2 of fixed a.  The
    exponent is quadratic in (a, b), so a step by h1 or h2 multiplies the
    term by a ratio, and each ratio changes by a constant factor at each
    step: q1 = e^{2 pi i v |h1|^2} along h1, q2 = e^{2 pi i v |h2|^2} along
    h2 and w = e^{2 pi i v Re(h1 conj h2)} across.  A call makes eight expjpi
    calls, whatever its row count: those three; the term at b* of the centre
    row, the anchor nearest 0, and its ratios along +h1, -h1 and +h2; and
    the constant e^{-pi i (lambda0 . mu0)}.  1/w and 1/q2 are quotients.

    h2 is oriented so that Re(h1 conj h2) <= 0.  Then each row's b*, the
    integer nearest the row's minimiser mid of |z|, grows with a by 0 or 1
    per row.  From the centre, the upward pass steps +h1 and +h2 to each
    row's b*, the downward pass -h1 and -h2, and each row is walked outward
    from b*.  Across empty rows, b follows the straight line.  Where float
    rounding breaks a tie between two nearest integers the other way, a
    pass steps back along h2 by the other pass's step.  Every step is a
    product.  The coefficient (z . eta) steps by the fixed-point
    increments (h1 . eta) and (h2 . eta), so its steps add no rounding.  The
    walk runs on Gaussian integers scaled by 2^P.  The terms c x are summed
    exactly at scale 2^2P, and the sum is rounded once.

    Guard bits.  A truncation to 2^-P that produces a carried value Y costs
    a term T computed from Y at most 2^-P |T| / |Y|.  With sigma = Im v,
    |term| = e^{-pi sigma |z|^2} <= 1.  The reduction gives
    |Re(h1 conj h2)| <= |h2|^2 / 2, so every point the passes visit has
    |b - mid| <= 3/2, and |T| <= e^{4 pi sigma |h2|^2} |Y| for every
    carried term or ratio Y and every term T computed from it.  Within a
    row, terms and ratios only shrink outward from b*.  The constants q1
    and q2, truncated once, are off by 2^-P / |q| = 2^-P e^{2 pi sigma |h|^2}
    relatively.  Since |h2| <= |h1|, both losses are at most
    e^{2 pi sigma (|h1|^2 + |h2|^2)}.  So P is the working precision, plus
    24 guard bits, plus _walk_guard_bits, which is
    ceil(2 pi sigma (|h1|^2 + |h2|^2) log2 e)."""
    with ctx.workprec():
        v = mp.mpc(spec.v)
        if not v.imag > 0:
            raise ValueError("theta_complex requires Im(v) > 0")
        eta = mp.mpc(spec.eta)
        if eta == 0:
            return ThetaValue(mp.mpc(0), mp.mpf(0))
        g1, g2 = spec.gens()
        lam0, mu0 = mp.mpc(spec.lambda0), mp.mpc(spec.mu0)
        covol = abs(g1.real * g2.imag - g2.real * g1.imag)
        alpha = mp.pi * v.imag

        def tail(R):
            # shell count 2 pi r dr / covol, |term| <= |eta| r e^{-alpha r^2}
            return (
                (2 * mp.pi * abs(eta) / covol)
                * mp.exp(-alpha * R * R)
                * (R / (2 * alpha) + 1 / (4 * alpha * alpha * R))
            )

        R = mp.sqrt((mp.log(10) * ctx.dps + 8) / alpha)
        bound = tail(R)
        while bound > ctx.target_abs_err / 2:
            R += mp.mpf(1) / 4
            if R > 1e6:
                raise ConvergenceError("Im(v) too small to reach the target")
            bound = tail(R)

        # rows step along h1 and walk along the shortest vector h2, which
        # makes them long and few; their float64 plan needs finite squares
        f1, f2 = complex(g1), complex(g2)
        if not max(map(abs, (f1.real, f1.imag, f2.real, f2.imag))) < 2 ** 500:
            raise ConvergenceError("the lattice generators are too large for a float64 plan")
        short, long = _gauss_reduce((1, 0), (0, 1), lambda c: c[0] * f1 + c[1] * f2)
        h2, h1 = (c[0] * g1 + c[1] * g2 for c in (short, long))
        m = h1.real * h2.real + h1.imag * h2.imag
        if m > 0:  # orient h2 so that each row's b* grows with a
            h2, m = -h2, -m
        rows = _disk_rows(h1, h2, lam0, R)
        if sum(hi - lo + 1 for _, lo, hi, _ in rows) > _MAX_TERMS:
            raise ConvergenceError("term cap exceeded")
        if not rows:
            return ThetaValue(mp.mpc(0), +bound)

        f1, f2, fl0 = complex(h1), complex(h2), complex(lam0)
        centre = min(range(len(rows)),
                     key=lambda k: abs(fl0 + rows[k][0] * f1 + rows[k][3] * f2))
        a0, _, _, b0 = rows[centre]
        z0 = lam0 + a0 * h1 + b0 * h2
        n1 = h1.real * h1.real + h1.imag * h1.imag
        n2 = h2.real * h2.real + h2.imag * h2.imag
        p1, p2 = scalar_product(h1, mu0), scalar_product(h2, mu0)
        r1 = 2 * (z0.real * h1.real + z0.imag * h1.imag)
        r2 = 2 * (z0.real * h2.real + z0.imag * h2.imag)
        # x(a, b) = v |z|^2 - 2 (a h1 + b h2) . mu0 at the centre, and its
        # differences along +h1, -h1 and +h2
        term = mp.expjpi(v * (z0.real * z0.real + z0.imag * z0.imag)
                         - 2 * (a0 * p1 + b0 * p2))
        up1 = mp.expjpi(v * (n1 + r1) - 2 * p1)
        down1 = mp.expjpi(v * (n1 - r1) + 2 * p1)
        up2 = mp.expjpi(v * (n2 + r2) - 2 * p2)
        q1, q2, w = (mp.expjpi(2 * v * n) for n in (n1, n2, m))
        const = mp.expjpi(-scalar_product(lam0, mu0))

        P = mp.mp.prec + _GUARD_BITS + _walk_guard_bits(v.imag, n1, n2)
        Q1, Q2, W, WI, Q2I, E0, U0, D0 = (
            _to_fixed(f, P) for f in (q1, q2, w, 1 / w, 1 / q2, term, up2, q2 / up2))
        C0, S1, S2 = (to_fixed(scalar_product(h, eta)._mpf_, P) for h in (z0, h1, h2))

        def mul(x, y):
            return (x[0] * y[0] - x[1] * y[1]) >> P, (x[0] * y[1] + x[1] * y[0]) >> P

        def row_sum(e, up, down, c, n_up, n_down):
            # c x at b*, ..., hi, then at b* - 1, ..., lo, exactly at 2^2P
            sr = si = 0
            er, ei = e
            ur, ui = up
            qr, qi = Q2
            cu = c
            for _ in range(n_up):
                sr += cu * er
                si += cu * ei
                er, ei = (er * ur - ei * ui) >> P, (er * ui + ei * ur) >> P
                ur, ui = (ur * qr - ui * qi) >> P, (ur * qi + ui * qr) >> P
                cu += S2
            er, ei = e
            dr, di = down
            for _ in range(n_down):
                er, ei = (er * dr - ei * di) >> P, (er * di + ei * dr) >> P
                dr, di = (dr * qr - di * qi) >> P, (dr * qi + di * qr) >> P
                c -= S2
                sr += c * er
                si += c * ei
            return sr, si

        def walk(rows, s, row_ratio, ws, wsi):
            # the rows in walking order from the centre, a stepping by s;
            # e is the term at (a, b), and row_ratio, up and down its ratios
            # to (a + s, b), (a, b + 1) and (a, b - 1)
            a, b, e, up, down, c = a0, b0, E0, U0, D0, C0
            sr = si = 0
            for ra, lo, hi, bt in rows:
                k, a, bs = (ra - a) * s, ra, b
                for j in range(1, k + 1):
                    e, row_ratio = mul(e, row_ratio), mul(row_ratio, Q1)
                    up, down = mul(up, ws), mul(down, wsi)
                    c += s * S1
                    target = bs + ((bt - bs) * j + k // 2) // k
                    while b < target:
                        e, up, down = mul(e, up), mul(up, Q2), mul(down, Q2I)
                        row_ratio, c, b = mul(row_ratio, ws), c + S2, b + 1
                    while b > target:
                        e, up, down = mul(e, down), mul(up, Q2I), mul(down, Q2)
                        row_ratio, c, b = mul(row_ratio, wsi), c - S2, b - 1
                tr, ti = row_sum(e, up, down, c, hi - b + 1, b - lo)
                sr, si = sr + tr, si + ti
            return sr, si

        up_re, up_im = walk(rows[centre:], 1, _to_fixed(up1, P), W, WI)
        down_re, down_im = walk(rows[:centre][::-1], -1, _to_fixed(down1, P), WI, W)
        total = mp.mpc(mp.ldexp(up_re + down_re, -2 * P),
                       mp.ldexp(up_im + down_im, -2 * P)) * const
        return ThetaValue(+total, +bound)


def norm_coefficients(spec: RMThetaSpec, max_norm, ctx: PrecisionCtx = DEFAULT_CTX):
    """The unit-averaged theta of spec folded by norm: (den^2, [(n, c_n)]) in
    ascending n over the U-orbit representatives xi of (l0 + L) \\ {0} with
    |N(xi)| = n/den^2 <= max_norm, where

        c_n = sum (eta0 sgn(xi') + eta1 sgn(xi)) e^{-2 pi i tr(xi m0')}.

    fold_by_norm gives integer sign sums per exponent r of tr(xi m0') mod 1
    for each nonzero part of eta, so each exponent takes one character.  The
    characters' parts are integers on one binary exponent E, so each part
    of eta takes one exact integer dot product, rounded once as mp.fdot
    rounds it; its products with eta's parts and their sum are rounded at
    the working precision, as mpc arithmetic rounds them.  Zero coefficients
    are dropped."""
    spec.validate()
    with ctx.workprec():
        eta = mp.mpc(spec.eta)
        if eta == 0:
            return 1, []
        den, rows = coset_slice_rows(spec.L, spec.l0, spec.epsU * spec.epsU, max_norm)
        parts = [k for k, e in enumerate((eta.real, eta.imag)) if e != 0]
        etas = [(eta.real, eta.imag)[k]._mpf_ for k in parts]
        modulus, folds = fold_by_norm(spec.L.field.D, den, rows, spec.m0, parts)
        character = _characters(modulus)
        read = {r: character(r)._mpc_ for _, sums in folds for r, s in sums.items() if any(s)}
        # |character| = 1, so every nonzero part has an exponent <= 0
        E = min((v[2] for z in read.values() for v in z if v[1]), default=0)
        table = {r: [(-man if sign else man) << exp - E for sign, man, exp, _ in z]
                 for r, z in read.items()}
        prec, rnd = mp.mp.prec, round_nearest
        coeffs = []
        for n, sums in folds:
            re = im = fzero
            for i, e in enumerate(etas):
                dr = di = 0
                for r, s in sums.items():
                    if s[i]:
                        cr, ci = table[r]
                        dr, di = dr + s[i] * cr, di + s[i] * ci
                re = mpf_add(re, mpf_mul(e, from_man_exp(dr, E, prec, rnd), prec, rnd), prec, rnd)
                im = mpf_add(im, mpf_mul(e, from_man_exp(di, E, prec, rnd), prec, rnd), prec, rnd)
            if re[1] or im[1]:
                coeffs.append((n, mp.make_mpc((re, im))))
        return den * den, coeffs


def theta_rm(spec: RMThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX) -> ThetaValue:
    """Unit-averaged theta: sum over representatives xi of U-orbits of
    (l0 + L) \\ {0} of (eta0 sgn(xi') + eta1 sgn(xi)) e^{2 pi i v |N(xi)|}
    e^{-2 pi i tr(l m0')} e^{-pi i tr(l0 m0')}, l = xi - l0, with exact signs
    and exact rational character exponents.

    norm_coefficients up to the tail's cutoff gives one coefficient per
    norm, so each distinct norm takes one expjpi; tr(l0 m0') goes into the
    constant factor."""
    with ctx.workprec():
        v = mp.mpc(spec.v)
        eta = mp.mpc(spec.eta)
        sigma = v.imag
        if not sigma > 0:  # the cutoff below divides by it
            raise ValueError("v must lie in the upper half plane")
        covol = float(delta(spec.L, ctx))
        logw = _unit_log(spec.epsU.embed("id", ctx))
        coefmax = float(abs(eta.real) + abs(eta.imag))

        def tail(X):
            # rep density 4 log(w) / Delta per unit of |N|
            return (
                coefmax
                * (4 * max(logw, 1e-9) / covol)
                * mp.exp(-2 * mp.pi * sigma * X)
                / (2 * mp.pi * sigma)
            )

        X = (mp.log(10) * ctx.dps + 8) / (2 * mp.pi * sigma)
        while tail(X) > ctx.target_abs_err / 2:
            X += 1
            if X > 1e7:
                raise ConvergenceError("Im(v) too small to reach the target")
        dd, coeffs = norm_coefficients(spec, Fraction(math.ceil(float(X) * 1024), 1024), ctx)
        terms = [c * mp.expjpi(2 * v * (mp.mpf(n) / dd)) for n, c in coeffs]
        # e^{-2 pi i tr((xi - l0) m0')} e^{-pi i tr(l0 m0')}
        #   = e^{-2 pi i tr(xi m0')} e^{pi i tr(l0 m0')}
        const = mp.expjpi(
            mpf_from_fraction(_frac_mod2((spec.l0 * spec.m0.conjugate()).trace()))
        )
        return ThetaValue(+(mp.fsum(terms) * const), +tail(X))


def hecke_average_check(spec: RMThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX):
    """|Theta^U(v) - sqrt(-iv) * integral over one geodesic period of the
    complex theta|, both sides computed independently, the integral by the
    trapezoid rule.  Returns the residual."""
    with ctx.workprec():
        lhs = theta_rm(spec, ctx).value
        loge = mp.log(spec.epsU.embed("id", ctx))
        # only e^{+-t/2} change along the flow: embed the field elements once
        l1, l2, l0, m0 = (embed_pair(e, ctx)
                          for e in (spec.L.l1, spec.L.l2, spec.l0, spec.m0))

        def integrand(t):
            lat = hecke_lattice(spec.L, t, ctx, basis=(l1, l2))
            cs = ComplexThetaSpec(
                lattice=lat,
                lambda0=lat.flow_point(l0, ctx),
                mu0=lat.flow_point(m0, ctx),
                eta=spec.eta,
                v=spec.v,
            )
            return theta_complex(cs, ctx).value

        # one whole period: there the trapezoid rule converges exponentially
        integral, _, converged = trapezoid(integrand, -loge, loge, ctx)
        if not converged:
            raise ConvergenceError("geodesic quadrature did not converge")
        rhs = branch_sqrt_neg_iv(spec.v, ctx) * integral
        return +abs(lhs - rhs)


def fourier_gaussian_pair(eta, v, y, ctx: PrecisionCtx = DEFAULT_CTX):
    """Fourier transform of f(x) = (x.eta) e^{pi i v |x|^2} under the pairing
    (x.y) = x0 y1 + x1 y0: returns (closed_form, quadrature) evaluated at y,
    where closed_form = (i/v^2) (y . i conj(eta)) e^{-pi i |y|^2 / v} and
    quadrature is the nested trapezoid rule over [-A, A]^2, with A where the
    Gaussian is negligible; a row that does not converge raises."""
    with ctx.workprec():
        v, eta, y = mp.mpc(v), mp.mpc(eta), mp.mpc(y)
        if not v.imag > 0:
            raise ValueError("requires Im(v) > 0")
        lhs = (
            (1j / (v * v))
            * scalar_product(y, 1j * mp.conj(eta))
            * mp.expjpi(-(y.real**2 + y.imag**2) / v)
        )
        if eta == 0:
            return +lhs, mp.mpc(0)
        alpha = mp.pi * v.imag
        A = mp.sqrt((mp.log(10) * ctx.dps + 10) / alpha)

        def f(x0, x1):
            sp = x0 * eta.imag + x1 * eta.real
            modsq = x0 * x0 + x1 * x1
            pair = x0 * y.imag + x1 * y.real
            return sp * mp.expjpi(v * modsq) * mp.expjpi(-2 * pair)

        def integrate(g):
            value, _, converged = trapezoid(g, -A, A, ctx)
            if not converged:
                raise ConvergenceError("2D Fourier quadrature did not converge")
            return value

        return +lhs, +integrate(lambda x0: integrate(lambda x1: f(x0, x1)))


def _dual_basis_complex(g1, g2):
    """mu1, mu2 with (g_i . mu_j) = delta_ij under (x.y) = x0 y1 + x1 y0."""
    det = g1.imag * g2.real - g2.imag * g1.real
    # rows [[Im g, Re g]] applied to (mu0, mu1)
    mu1 = mp.mpc(-g2.imag / det, g2.real / det)
    mu2 = mp.mpc(g1.imag / det, -g1.real / det)
    return mu1, mu2


def poisson_check(lattice, v, eta, shift=(0, 0), ctx: PrecisionCtx = DEFAULT_CTX):
    """Residual of the shifted Poisson identity for f(x) = (x.eta)
    e^{pi i v|x|^2}: direct sum over the lattice against the dual-side sum of
    the closed-form transform, both enumerated explicitly."""
    with ctx.workprec():
        v = mp.mpc(v)
        eta = mp.mpc(eta)
        x0, y0 = mp.mpc(shift[0]), mp.mpc(shift[1])
        if isinstance(lattice, HeckeLattice):
            g1, g2 = lattice.gen1, lattice.gen2
            dl = hecke_lattice(dual(lattice.base), lattice.t, ctx)
            d1, d2 = dl.gen1, dl.gen2
        else:
            g1, g2 = (mp.mpc(z) for z in lattice)
            d1, d2 = _dual_basis_complex(g1, g2)
        covol = abs(g1.real * g2.imag - g2.real * g1.imag)

        lhs = theta_complex(
            ComplexThetaSpec(lattice=(g1, g2), lambda0=x0, mu0=y0, eta=eta, v=v),
            ctx,
        ).value

        # dual side: (1/covol) sum over mu of g(y0+mu) e^{2 pi i (x0.mu)
        # + pi i (x0.y0)} with g(y) = (i/v^2)(y . i conj(eta)) e^{-pi i |y|^2/v}
        w = -1 / v
        dspec = ComplexThetaSpec(
            lattice=(d1, d2),
            lambda0=y0,
            mu0=-x0,
            eta=1j * mp.conj(eta),
            v=w,
        )
        rhs = (1j / (v * v)) / covol * theta_complex(dspec, ctx).value
        return +abs(lhs - rhs)


def functional_equation_Theta(spec: RMThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX):
    """Residual of the unit-averaged functional equation
    Theta_{L}[l0; m0](v) = (1/(Delta(L) v)) Theta_{L^?}[m0; -l0](-1/v)
    with eta -> i*conj(eta) on the right."""
    with ctx.workprec():
        v = mp.mpc(spec.v)
        lhs = theta_rm(spec, ctx).value
        rhs = theta_rm(spec.dual_spec(), ctx).value / (delta(spec.L, ctx) * v)
        return +abs(lhs - rhs)
