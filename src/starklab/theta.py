"""Theta functions on both sides of the averaging identity: the complex
lattice theta (a sign-weighted Gaussian sum with shift characters), the
real-multiplication theta summed over unit-orbit representatives, the
Fourier/Poisson toolkit for the Gaussian family, and the two functional
equations that drive the zeta continuation.  Both integrals, the geodesic
average and the Fourier transform, use the trapezoid rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

from .numerics import (
    ConvergenceError,
    DEFAULT_CTX,
    PrecisionCtx,
    branch_sqrt_neg_iv,
    mpf_from_fraction,
    ordered_sum,
    trapezoid,
)
from .hecke import HeckeLattice, hecke_lattice, scalar_product
from .pseudolattice import Pseudolattice, coset_slice_reps, delta, dual
from .quadfield import QuadElem


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


def theta_complex(spec: ComplexThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX) -> ThetaValue:
    """Sum of ((lambda0+lambda) . eta) e^{pi i v |lambda0+lambda|^2}
    e^{-2 pi i (lambda . mu0) - pi i (lambda0 . mu0)} over the lattice,
    truncated at |lambda0 + lambda| <= R with a Gaussian shell tail bound."""
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
        while tail(R) > ctx.target_abs_err / 2:
            R += mp.mpf(1) / 4
            if R > 1e6:
                raise ConvergenceError("Im(v) too small to reach the target")

        # float64 lattice-point enumeration in the disk |lam0 + lam| <= R
        fg1, fg2 = complex(g1), complex(g2)
        fl0 = complex(lam0)
        Rf = float(R) * (1 + 1e-12) + 1e-300
        det = fg1.real * fg2.imag - fg2.real * fg1.imag
        ca = (abs(fg2.imag) + abs(fg2.real)) * Rf / abs(det)
        cb = (abs(fg1.imag) + abs(fg1.real)) * Rf / abs(det)
        a0 = (-fl0.real * fg2.imag + fl0.imag * fg2.real) / det
        b0 = (fg1.real * -fl0.imag + fg1.imag * fl0.real) / det
        pts = []
        for a in range(math.floor(a0 - ca) - 1, math.ceil(a0 + ca) + 2):
            for b in range(math.floor(b0 - cb) - 1, math.ceil(b0 + cb) + 2):
                z = fl0 + a * fg1 + b * fg2
                if abs(z) <= Rf:
                    pts.append((a, b))
        if len(pts) > ctx.max_terms:
            raise ConvergenceError("term cap exceeded")
        pts.sort()

        const = mp.expjpi(-scalar_product(lam0, mu0))
        terms = []
        for a, b in pts:
            lam = a * g1 + b * g2
            z = lam0 + lam
            coef = scalar_product(z, eta)
            if coef == 0:
                continue
            modsq = z.real * z.real + z.imag * z.imag
            phase = mp.expjpi(v * modsq) * mp.expjpi(-2 * scalar_product(lam, mu0))
            terms.append(coef * phase)
        total = ordered_sum(terms) * const
        return ThetaValue(+total, +tail(R))


def theta_rm(spec: RMThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX) -> ThetaValue:
    """Unit-averaged theta: sum over representatives xi of U-orbits of
    (l0 + L) \\ {0} of (eta0 sgn(xi') + eta1 sgn(xi)) e^{2 pi i v |N(xi)|}
    e^{-2 pi i tr(l m0')} e^{-pi i tr(l0 m0')}, l = xi - l0, with exact signs
    and exact rational character exponents."""
    spec.validate()
    with ctx.workprec():
        v = mp.mpc(spec.v)
        eta = mp.mpc(spec.eta)
        if eta == 0:
            return ThetaValue(mp.mpc(0), mp.mpf(0))
        eta0, eta1 = eta.real, eta.imag
        sigma = v.imag
        W = spec.epsU * spec.epsU
        covol = float(delta(spec.L, ctx))
        logw = math.log(float(spec.epsU.embed("id", ctx)))
        coefmax = float(abs(eta0) + abs(eta1))

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
        X_fr = Fraction(math.ceil(float(X) * 1024), 1024)
        reps = coset_slice_reps(spec.L, spec.l0, W, X_fr)
        if len(reps) > ctx.max_terms:
            raise ConvergenceError("term cap exceeded")

        m0c = spec.m0.conjugate()
        const = mp.expjpi(
            -mpf_from_fraction(_frac_mod2((spec.l0 * m0c).trace()))
        )
        char_cache: dict = {}
        terms = []
        for xi, a, b, absn in reps:
            s_conj = xi.conjugate().sign()
            s_id = xi.sign()
            coef = eta0 * s_conj + eta1 * s_id
            if coef == 0:
                continue
            n_mp = mpf_from_fraction(absn)
            tr = _frac_mod1(((xi - spec.l0) * m0c).trace())
            if tr not in char_cache:
                char_cache[tr] = mp.expjpi(-2 * mpf_from_fraction(tr))
            terms.append(coef * mp.expjpi(2 * v * n_mp) * char_cache[tr])
        total = ordered_sum(terms) * const
        return ThetaValue(+total, +tail(X))


def hecke_average_check(spec: RMThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX):
    """|Theta^U(v) - sqrt(-iv) * integral over one geodesic period of the
    complex theta|, both sides computed independently, the integral by the
    trapezoid rule.  Returns the residual."""
    with ctx.workprec():
        lhs = theta_rm(spec, ctx).value
        loge = mp.log(spec.epsU.embed("id", ctx))

        def integrand(t):
            lat = hecke_lattice(spec.L, t, ctx)
            cs = ComplexThetaSpec(
                lattice=lat,
                lambda0=lat.embed_point(spec.l0, ctx),
                mu0=lat.embed_point(spec.m0, ctx),
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


def functional_equation_theta(spec: ComplexThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX):
    """Residual of the inversion identity for the complex theta: requires a
    Hecke lattice so the base pseudolattice provides Delta(L) and the dual."""
    if not isinstance(spec.lattice, HeckeLattice):
        raise ValueError("functional equation needs a Hecke lattice input")
    with ctx.workprec():
        v = mp.mpc(spec.v)
        lhs = theta_complex(spec, ctx).value
        L = spec.lattice.base
        dlat = hecke_lattice(dual(L), spec.lattice.t, ctx)
        dspec = ComplexThetaSpec(
            lattice=dlat,
            lambda0=mp.mpc(spec.mu0),
            mu0=-mp.mpc(spec.lambda0),
            eta=1j * mp.conj(mp.mpc(spec.eta)),
            v=-1 / v,
        )
        dl = delta(L, ctx)
        rhs = (1j / (dl * v * v)) * theta_complex(dspec, ctx).value
        return +abs(lhs - rhs)


def functional_equation_Theta(spec: RMThetaSpec, ctx: PrecisionCtx = DEFAULT_CTX):
    """Residual of the unit-averaged functional equation
    Theta_{L}[l0; m0](v) = (1/(Delta(L) v)) Theta_{L^?}[m0; -l0](-1/v)
    with eta -> i*conj(eta) on the right."""
    spec.validate()
    with ctx.workprec():
        v = mp.mpc(spec.v)
        lhs = theta_rm(spec, ctx).value
        rhs = theta_rm(spec.dual_spec(), ctx).value / (delta(spec.L, ctx) * v)
        return +abs(lhs - rhs)
