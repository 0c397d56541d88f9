"""Partial zeta functions of real quadratic pairs, their analytic
continuation, Stark numbers, ray class groups, and Stark's rank-one
conjecture on Cl_{f oo2}: class invariance, S0(C R2) = 1/S0(C), and the
coefficients of prod (X - S0) as algebraic integers of bounded conjugate.

A pair (L, l0) of an integral ideal L and an integral element l0 determines
the partial zeta function

    zeta(L, l0, s) = sgn(l0') N(b)^s  sum  sgn(xi') / |N(xi)|^s,

the sum running over one representative xi from each orbit of the coset
l0 + L under multiplication by the units congruent to 1 mod f, where
b = gcd(L, (l0)) and f = L / b.  Two independent evaluation routes are
provided: a direct smoothly-truncated sum (valid for Re s > 1) and an
incomplete-gamma split of the associated theta integral which continues the
function to the whole plane.  The Stark number is S0 = exp(zeta'(0)).

The split route reads the theta layer once per (reduced input, split
points, cutoffs, working precision) into a ContinuationData:
theta.norm_coefficients of the two sides of the theta functional equation
split at v = i t, the spec (L, l0, m0 = 0, eta = 1, U = eps_f_plus, v = i t)
and its dual_spec at v = i/t, and the covolume.  The split point t is free;
it is the power of two at which the two sides hold about as many norms, and
each side has its own cutoff.  Its two consumers are partial_zeta_continued
(incomplete gamma at any s) and the regularized zeta'(0) (E1 and
exponentials at s = 0), so stark_number's cross-check of the two shares one
enumeration, as does its second gate, the regularized zeta'(0) at t/2.

The cross-check differentiates the continued zeta by a complex step,
zeta'(0) ~ Im zeta(ih)/h, which needs two evaluations where a real stencil
needs six.  It is robust at s = 0 because 1/Gamma(s) vanishes there: the
prefactor of the split bracket is ih + O(h^2) with real part O(h^2), so
the rounding noise on the bracket's imaginary part enters Im zeta(ih) only
through that real part, and Im zeta(ih)/h reads the bracket's real part.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath as mp

from .numerics import (
    BoundExceeded,
    ConvergenceError,
    PrecisionCtx,
    DEFAULT_CTX,
    mpf_from_fraction,
    scaled_upper_gamma,
)
from .quadfield import (
    FieldCtx,
    QuadElem,
    QuadIdeal,
    UnitData,
    unit_mod_f,
    _omega_mul,
    _sign_surd,
)
from .pseudolattice import (
    Pseudolattice,
    coset_slice_reps,  # noqa: F401  (unused; bench/test_bench.py traces this import site)
    coset_slice_rows,
    delta,
    ideal_to_pseudolattice,
)
from .theta import RMThetaSpec, norm_coefficients


class ConditionFailed(ValueError):
    """A pair (L, l0) violates one of the two admissibility conditions."""

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__("condition (%s) failed: %s" % (condition, message))


class RouteDisagreement(ArithmeticError):
    """The two independent continuation routes differ beyond tolerance."""


# ---------------------------------------------------------------------------
# validated input
# ---------------------------------------------------------------------------


@dataclass
class StarkInput:
    """A validated pair (L, l0) with its derived ideals and unit data.

    b = gcd(L, (l0)); a0 = (l0)/b; f = L/b.  Condition (i): b and a0 are
    coprime to f.  Condition (ii): every unit congruent to 1 mod f has
    positive conjugate embedding (vacuous for f = (1), where the symmetric
    unit group forces the zeta function to vanish identically).
    """

    L: QuadIdeal
    l0: QuadElem
    b: QuadIdeal
    a0: QuadIdeal
    f: QuadIdeal
    unit: UnitData
    # the reduced pair, when it is not this pair itself
    _reduced: StarkInput | None = field(default=None, repr=False, compare=False)
    # the last ContinuationData built, under its key (cutoffs, work_bits):
    # cutoffs holds a (t, primal max_norm, dual max_norm) triple per split
    _continuation: tuple[tuple[tuple[tuple[Fraction, Fraction, Fraction], ...], int],
                         ContinuationData] | None = field(
        default=None, repr=False, compare=False)

    @property
    def field(self) -> FieldCtx:
        return self.L.field

    @property
    def lattice(self) -> Pseudolattice:
        return ideal_to_pseudolattice(self.L)

    @property
    def sign_l0_conj(self) -> int:
        return self.l0.conjugate().sign()

    def reduced(self) -> StarkInput:
        """Equivalent pair with any common rational-integer factor removed.

        For a positive integer d with L/d integral and l0/d integral,
        zeta(L, l0, s) = zeta(L/d, l0/d, s) identically: norms scale by d^2
        = N((d)), which the N(b)^s prefactor absorbs, and the conjugate
        signs are unchanged.  Working with the reduced pair keeps the
        continuation's lattices, and so its enumerations, small."""
        if self._reduced is not None:
            return self._reduced
        a, bh, ch = self.L.hnf()
        p, q = self.field.coords(self.l0)
        d = math.gcd(math.gcd(a, bh), math.gcd(ch, math.gcd(int(p), int(q))))
        if d <= 1:
            # not cached: a reference to itself would put the input and its
            # continuation data on a cycle that only the garbage collector
            # frees, so they would outlive the caller's last reference
            return self
        self._reduced = validate_pair(
            self.L.divide_by_integer(d), self.l0 / self.field.elem(d)
        )
        return self._reduced


def validate_pair(L: QuadIdeal, l0: QuadElem) -> StarkInput:
    """Check the admissibility conditions for (L, l0) and assemble the
    derived data (b, a0, f, unit group generators)."""
    F = L.field
    if not F.is_integral(l0):
        raise ConditionFailed("i", "l0 is not an algebraic integer")
    if l0.is_zero():
        raise ConditionFailed("i", "l0 must be nonzero")
    l0_ideal = QuadIdeal.principal(F, l0)
    b = L.gcd(l0_ideal)
    a0 = l0_ideal.divide(b)
    f = L.divide(b)
    if not b.coprime(f):
        raise ConditionFailed("i", "gcd(L, (l0)) is not coprime to L/gcd")
    if not a0.coprime(f):
        raise ConditionFailed("i", "(l0)/gcd is not coprime to L/gcd")
    unit = unit_mod_f(F, f)
    if not f.is_unit_ideal() and not unit.sign_condition:
        raise ConditionFailed(
            "ii", "a unit congruent to 1 mod f has negative conjugate"
        )
    return StarkInput(L=L, l0=l0, b=b, a0=a0, f=f, unit=unit)


# ---------------------------------------------------------------------------
# direct summation (Re s > 1)
# ---------------------------------------------------------------------------


def _smooth_weight(x: float) -> float:
    """C-infinity cutoff: 1 on [0, 1/4], 0 on [1, inf)."""
    if x <= 0.25:
        return 1.0
    if x >= 1.0:
        return 0.0
    t = (x - 0.25) / 0.75
    try:
        return 1.0 / (1.0 + math.exp(1.0 / (1.0 - t) - 1.0 / t))
    except OverflowError:  # e^709.8 and beyond: the weight is below 1e-308
        return 0.0


# |N| at which the smooth weight of the direct sum reaches 0
_DIRECT_MAX_NORM = 300_000


def partial_zeta_direct(inp: StarkInput, s, ctx: PrecisionCtx = DEFAULT_CTX):
    """Smoothly truncated direct sum of the partial zeta series.

    Valid for Re s > 1.5 (raises otherwise).  One representative per orbit
    of the unit group {eps == 1 mod f} is an integer row of coset_slice_rows
    up to |N| = 300,000, xi = (x + y sqrt(D))/den with sgn(xi') = sgn(x -
    y sqrt(D)) and |N(xi)| = n/den^2 (a correctly rounded float); the smooth
    cutoff makes the truncation error decay faster than any power of it.
    Float64 accumulation: accurate to about 1e-13 relative, independent of
    ctx."""
    inp = inp.reduced()
    s = complex(s)
    if s.real <= 1.5:
        raise ConvergenceError(
            "direct summation requires Re(s) > 1.5, got %s" % s.real
        )
    g = inp.unit.eps_f
    W = g * g  # ratio-slice step for the <eps_f>-orbits
    den, rows = coset_slice_rows(inp.lattice, inp.l0, W, _DIRECT_MAX_NORM)
    D, dd = inp.field.D, den * den
    terms = []
    for n, _, _, x, y in rows:
        norm = n / dd
        terms.append(_sign_surd(x, -y, D) * _smooth_weight(norm / _DIRECT_MAX_NORM)
                     * norm ** -s)
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    with ctx.workprec():
        pref = inp.sign_l0_conj * mp.power(inp.b.norm(), s)
        return mp.mpc(pref * total)


# ---------------------------------------------------------------------------
# analytic continuation (incomplete-gamma split)
# ---------------------------------------------------------------------------


def _split_spec(inp: StarkInput, t: Fraction) -> RMThetaSpec:
    """The primal side of the theta functional equation split at v = i t:
    (L, l0, m0 = 0, eta = 1, U = eps_f_plus).  Its dual_spec is the dual
    side at v = i/t."""
    lat = inp.lattice
    return RMThetaSpec(L=lat, l0=inp.l0, m0=lat.field.elem(0), eta=1,
                       epsU=inp.unit.eps_f_plus, v=mp.mpc(0, mpf_from_fraction(t)))


def _max_norm(rho: float, scale: Fraction, tol: float, s_scale: float) -> Fraction:
    """The cutoff in |N| of a side of density rho at v = i whose terms
    decay like e^{-2 pi |N| scale}: the cutoff at v = i for the density
    rho / scale per unit of |N| scale, divided by scale."""
    rho = max(1.0, rho / float(scale))
    x_min = max(10.0 + 3.0 * s_scale, -math.log(tol) + math.log(20.0 * rho) + 6.0)
    return (Fraction(math.ceil(x_min / (2 * math.pi))) + 2) / scale


@dataclass(frozen=True)
class ContinuationData:
    """Lattice data of the split evaluation at its split points and one
    precision.

    primal: (x, m) in ascending |N|, x = 2 pi |N| and m (an exact mpc) the
    sum of sgn(xi') over the primal coset representatives of that norm;
    dual: (x, c), c = sum sgn(xi) e^{2 pi i tr(xi l0')} over the dual lattice
    representatives of that norm; delta: the covolume.  Zeros are dropped.
    splits: per split point, the first the main one, (t, 1/t, kp, kd): Im v
    of the primal side at that split and of its dual side, and the number of
    primal and dual rows within that split's cutoffs."""

    primal: tuple
    dual: tuple
    delta: mp.mpf
    splits: tuple

    @classmethod
    def build(cls, inp: StarkInput, ctx: PrecisionCtx, cutoffs):
        """norm_coefficients of both sides of the theta functional equation,
        at ctx's working precision.  cutoffs: (t, primal max_norm, dual
        max_norm) per split point v = i t, the main one first; each side is
        enumerated once, to the largest of its cutoffs."""
        with ctx.workprec():
            spec = _split_spec(inp, Fraction(cutoffs[0][0]))
            two_pi = 2 * mp.pi

            def side(spec, max_norms):
                dd, coeffs = norm_coefficients(spec, max(max_norms), ctx)
                norms = [n for n, _ in coeffs]
                rows = tuple((two_pi * (mp.mpf(n) / dd), c) for n, c in coeffs)
                return rows, [bisect_right(norms, m * dd) for m in max_norms]

            primal, kp = side(spec, [p for _, p, _ in cutoffs])
            dual, kd = side(spec.dual_spec(), [d for _, _, d in cutoffs])
            ts = [Fraction(t) for t, _, _ in cutoffs]
            splits = tuple((mpf_from_fraction(t), mpf_from_fraction(1 / t), p, q)
                           for t, p, q in zip(ts, kp, kd))
            return cls(primal=primal, dual=dual, delta=delta(inp.lattice, ctx),
                       splits=splits)

    def split_sum(self, primal_term, dual_term, split: int = 0, scales=(1, 1)):
        """w1 sum_primal primal_term(m, x, x t) + (w2/(i delta)) sum_dual
        dual_term(c, x, x/t) at split point v = i t, over the rows within
        its cutoffs, each side accumulated in ascending |N|; (w1, w2) are
        the scales."""
        t, t_dual, kp, kd = self.splits[split]
        part1 = mp.mpc(0)
        for x, mult in self.primal[:kp]:
            part1 += primal_term(mult, x, x * t)
        part2 = mp.mpc(0)
        for x, coeff in self.dual[:kd]:
            part2 += dual_term(coeff, x, x * t_dual)
        w1, w2 = scales
        return w1 * part1 + w2 * part2 / (mp.mpc(0, 1) * self.delta)


# stark_number's second split point, as a multiple of the first: it widens
# only the primal side, whose points are the sparse ones
_GATE_SPLIT = Fraction(1, 2)


def _continuation_data(inp: StarkInput, ctx: PrecisionCtx,
                       s_scale: float = 1.0) -> ContinuationData:
    """The ContinuationData of a reduced input at its balanced split point t
    and at t * _GATE_SPLIT, each side's cutoff meeting ctx's error target
    for |s| <= s_scale.  The input keeps the last one built, and builds anew
    when a split point, a cutoff or work_bits changes."""
    lat = inp.lattice
    delta_f = float(lat.delta_exact()) * math.sqrt(lat.field.D)
    # crude density of slice representatives per unit of |N| at v = i:
    # 4 log W / Delta, W = eps_f_plus^2 the slice ratio; the dual side's,
    # of covolume 1/Delta, is rho Delta^2.  At v = i t the densities are
    # rho / t and rho' t per unit of the terms' arguments |N| t and |N| / t.
    rho = 8.0 * math.log(float(inp.unit.eps_f_plus.embed("id"))) / delta_f
    rho_dual = rho * delta_f ** 2
    # The dual side's slice points share a norm about 9 times as often as
    # the primal side's (D=5 p11 at t = 1/8: 4.5 rows per primal norm, 38
    # per dual norm), so the norm counts balance where rho / t = 9 rho' t,
    # at t = 3 / Delta; t is the nearest power of two.
    t = Fraction(2) ** -round(math.log2(delta_f / 3))
    tol = ctx.target_abs_err
    cutoffs = tuple((tau, _max_norm(rho, tau, tol, s_scale),
                     _max_norm(rho_dual, 1 / tau, tol, s_scale))
                    for tau in (t, t * _GATE_SPLIT))
    key = (cutoffs, ctx.work_bits)
    if inp._continuation is None or inp._continuation[0] != key:
        inp._continuation = key, ContinuationData.build(inp, ctx, cutoffs)
    return inp._continuation[1]


def partial_zeta_continued(inp: StarkInput, s, ctx: PrecisionCtx = DEFAULT_CTX):
    """Partial zeta via the split theta integral, valid for all s.

    The ray integral defining the completed zeta is split at v = i t, the
    balanced split point of the ContinuationData; the inner segment is
    mapped to the outer one by the theta functional equation.  Both halves
    integrate term by term to incomplete gamma functions, giving, with
    x = 2 pi |N|,

        zeta(s) = sgn(l0') N(b)^s (1/kappa) (2 pi)^s / Gamma(s) *
                  [ t^s sum_primal sgn(xi') (x t)^-s Gamma(s, x t)
                  + (1/(i Delta)) (1/t)^{1-s} sum_dual
                      sgn(xi) e^{2 pi i tr(xi l0')} (x/t)^{s-1} Gamma(1-s, x/t) ],

    sums over totally-positive-unit orbit representatives, Delta the
    covolume and kappa the orbit-splitting index of the unit groups.  Each
    term is one scaled_upper_gamma, y^-a Gamma(a, y), so no term forms a
    power of x: t^s and (1/t)^{1-s} multiply each side's sum once."""
    inp = inp.reduced()
    data = _continuation_data(inp, ctx, s_scale=abs(complex(s)))
    with ctx.workprec():
        s = mp.mpmathify(s)
        t, t_dual = data.splits[0][:2]
        total = data.split_sum(
            lambda m, x, y: m * scaled_upper_gamma(s, y, ctx),
            lambda c, x, y: c * scaled_upper_gamma(1 - s, y, ctx),
            scales=(mp.power(t, s), mp.power(t_dual, 1 - s)),
        )
        pref = (
            inp.sign_l0_conj
            * mp.power(inp.b.norm(), s)
            * mp.power(2 * mp.pi, s)
            * mp.rgamma(s)
            / inp.unit.kappa
        )
        return mp.mpc(pref * total)


@dataclass(frozen=True)
class StarkResult:
    """Stark number data: S0 = exp(zeta'(0)) with diagnostics.  zeta_0 is
    exactly 0 by construction (1/Gamma(0) = 0 times a finite bracket), not an
    evaluation, and is kept because the benchmark's report check reads it."""

    zeta_prime_0: mp.mpf
    s0: mp.mpf
    zeta_0: mp.mpf
    route_gap: mp.mpf


def _zeta_prime_0_regularized(inp: StarkInput, ctx: PrecisionCtx, split: int = 0):
    """zeta'(0) from the split representation at one of the split points
    v = i t of the ContinuationData, differentiated analytically.

    The prefactor (N(b) 2 pi)^s / Gamma(s) vanishes linearly at s = 0, so
    with x = 2 pi |N|
    zeta'(0) = sgn(l0') / kappa * [ sum_primal sgn(xi') E1(x t)
             + (1/(i Delta)) sum_dual sgn(xi) e^{2 pi i tr} e^{-x/t} / x ]."""
    inp = inp.reduced()
    data = _continuation_data(inp, ctx)
    with ctx.workprec():
        total = data.split_sum(lambda m, x, y: m * scaled_upper_gamma(0, y, ctx),
                               lambda c, x, y: c * mp.exp(-y) / x, split)
        val = total * inp.sign_l0_conj / inp.unit.kappa
        if abs(val.imag) > 1e6 * mp.mpf(ctx.target_abs_err):
            raise ConvergenceError(
                "regularized zeta'(0) has non-negligible imaginary part: %s"
                % mp.nstr(val.imag, 8)
            )
        return val.real


def _zeta_prime_0_complex_step(inp: StarkInput, ctx: PrecisionCtx):
    """zeta'(0) as the complex-step derivative Im zeta(ih)/h of the
    continued zeta (Squire & Trapp, SIAM Rev. 40, 1998), taken at h and at
    h/2.  Returns (the value at h/2, the change between the two).

    zeta is real on the real axis, so Im zeta(ih)/h = zeta'(0)
    - h^2 zeta'''(0)/6 + O(h^4), with no difference of nearby values to
    cancel.  The fixed-point kernel leaves about 2^-(work_bits+44) of
    absolute error on imaginary parts, which the division by h amplifies;
    h = 2^-floor((work_bits+44)/3) balances that against the truncation.

    At a small split point many primal arguments x t fall below the
    kernel's complex crossover (0.03 of the working precision, x t < 4.44 at
    128 bits), where scaled_upper_gamma(ih, x t) divides a series by ih and
    carries the log2(1/h) bits that cancel as extra precision.  An error left on the bracket's
    imaginary part would be harmless: the prefactor is ih + O(h^2), so
    Im zeta(ih)/h reads the bracket's real part, and its imaginary part
    enters only times O(h)."""
    h = mp.ldexp(1, -((ctx.work_bits + 44) // 3))
    with ctx.workprec():
        coarse, fine = (partial_zeta_continued(inp, mp.mpc(0, hh), ctx).imag / hh
                        for hh in (h, h / 2))
        return fine, abs(coarse - fine)


def stark_number(inp: StarkInput, ctx: PrecisionCtx = DEFAULT_CTX) -> StarkResult:
    """S0 = exp(zeta'(0)), computed by the regularized split formula and
    gated twice.  The complex-step derivative of the continued zeta
    cross-checks the special functions and the derivative: the gap between
    the two routes may be at most 100 times the larger of the error target
    and the complex step's change between h and h/2.  The regularized
    formula at the second split point t * _GATE_SPLIT cross-checks the data,
    Delta and the functional equation: it may differ by at most 100 times
    the error target.  Two continued evaluations in all, at ih and at ih/2;
    zeta(0) is not evaluated (see StarkResult)."""
    with ctx.workprec():
        tol = mp.mpf(ctx.target_abs_err)
        zp_b = _zeta_prime_0_regularized(inp, ctx)
        zp_a, deriv_err = _zeta_prime_0_complex_step(inp, ctx)
        gap = abs(zp_a - zp_b)
        allowed = 100 * max(tol, deriv_err)
        if gap > allowed:
            raise RouteDisagreement(
                "zeta'(0) routes differ by %s (allowed %s)"
                % (mp.nstr(gap, 8), mp.nstr(allowed, 8))
            )
        split_gap = abs(_zeta_prime_0_regularized(inp, ctx, split=1) - zp_b)
        if split_gap > 100 * tol:
            raise RouteDisagreement(
                "zeta'(0) at two split points differs by %s (allowed %s)"
                % (mp.nstr(split_gap, 8), mp.nstr(100 * tol, 8))
            )
        return StarkResult(
            zeta_prime_0=zp_b,
            s0=mp.exp(zp_b),
            zeta_0=mp.mpf(0),
            route_gap=gap,
        )


# ---------------------------------------------------------------------------
# ray class groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayClassGroup:
    """The ray class group modulo f: members[k] lists the enumerated ideals
    of class k in enumeration order, the first being the class's
    representative; table[i][j] is the class of rep_i * rep_j; units is
    unit_mod_f(f).  bases holds (conj(J), f (N J)_f) for the first
    enumerated ideal J of each ordinary class, and index maps each class's
    _ray_key to k."""

    modulus: QuadIdeal
    variant: str
    members: tuple
    table: tuple
    units: UnitData
    bases: tuple = field(repr=False, compare=False)
    index: dict = field(repr=False, compare=False)

    def __len__(self):
        return len(self.members)

    @property
    def reps(self) -> tuple:
        return tuple(m[0] for m in self.members)

    def class_index(self, ideal: QuadIdeal) -> int:
        key = _ray_key(ideal, self.bases, self.variant, self.units)
        k = self.index.get(key)
        if k is None:
            raise BoundExceeded("ideal not equivalent to any enumerated class")
        return k


def _congruence_ideal(n: int, f: QuadIdeal) -> QuadIdeal:
    """f (n)_f, with (n)_f the part of (n) supported on the primes of f:
    the limit of T -> gcd(n f, T f) from T = f."""
    T = f
    if math.gcd(n, f.norm()) > 1:
        nf = f * n
        while (nxt := nf.gcd(T * f)) != T:
            T = nxt
    return T


def _residue_key(F: FieldCtx, gen: tuple[int, int], target: QuadIdeal,
                 variant: str, units: UnitData) -> tuple:
    """The least, over the unit multiples +-eps0^k gamma (k < units.order),
    of (the residue mod target, and in the narrow variant the sign pair
    modulo units.signs), gamma = u + v omega for gen = (u, v).

    For a base J of norm n and target = f (n)_f, let A conj(J) = (gamma)
    and B conj(J) = (delta) with A, B coprime to f.  Then A B^{-1} =
    (gamma/delta), and gamma/delta == 1 mod* f iff gamma == delta mod
    target, as both have the f-part (n)_f.  A generator of A B^{-1} that
    is == 1 mod* f (and totally positive, narrow) exists iff some
    +-eps0^k gamma is == delta mod target with a sign pair in
    sgn(delta) units.signs: iff the two keys agree.  eps0^order is +-1
    times a unit == 1 mod f, so k < order covers the orbit; as eps0 > 0,
    the sign pair of +-eps0^k gamma is +-(sgn gamma,
    sgn gamma' * sgn(eps0')^k)."""
    u, v = gen
    # gamma = (x + v sqrt(D))/2 when t = 1 and x + v sqrt(D) when t = 0
    x = 2 * u + v if F.omega_trace else u
    sgn, sgn_conj = _sign_surd(x, v, F.D), _sign_surd(x, -v, F.D)
    r = target._residue(gen)
    best = None
    for _ in range(units.order):
        for m, res in ((1, r), (-1, target._residue((-r[0], -r[1])))):
            key = res if variant == "wide" else (res, min(
                (m * sgn * a, m * sgn_conj * b) for a, b in units.signs))
            if best is None or key < best:
                best = key
        r = target._residue(_omega_mul(F, r, units.step))
        sgn_conj *= units.eps0_norm
    return best


def _ray_key(I: QuadIdeal, bases, variant: str, units: UnitData) -> tuple | None:
    """(j, _residue_key of gamma) for the first base conj(J_j) with
    I conj(J_j) = (gamma) principal, or None when I lies in no base's
    ordinary class."""
    for j, (conj_J, target) in enumerate(bases):
        gen = (I * conj_J).generator_coords()
        if gen is not None:
            return j, _residue_key(I.field, gen, target, variant, units)
    return None


def _new_base(J: QuadIdeal, f: QuadIdeal, variant: str, units: UnitData):
    """The base (conj(J), f (N J)_f) and J's own _residue_key: as
    J conj(J) = (N J), it needs no principal test."""
    target = _congruence_ideal(J.norm(), f)
    return (J.conjugate(), target), _residue_key(J.field, (J.norm(), 0), target,
                                                 variant, units)


def _enumerate_coprime_ideals(F: FieldCtx, f: QuadIdeal, norm_bound: int,
                              above: int = 0):
    """All integral ideals of norm in (above, norm_bound] coprime to f, in
    ascending norm, via the two-generator normal form c*(a, b + omega)."""
    t, nw = F.omega_trace, F.omega_norm
    out = []
    for n in range(above + 1, norm_bound + 1):
        c = 1
        while c * c <= n:
            if n % (c * c) == 0:
                a = n // (c * c)
                for b in range(a):
                    if (b * b + t * b + nw) % a == 0:
                        I = QuadIdeal(F, a * c, b * c, c)
                        if I.coprime(f):
                            out.append(I)
            c += 1
    return out


# Classes ray_classes enumerates before it gives up.
_MAX_RAY_CLASSES = 64
# Norm bound past which ray_classes stops doubling its bound.
_MAX_NORM_BOUND = 960


def ray_classes(f: QuadIdeal, variant: str = "narrow",
                norm_bound: int = 30) -> RayClassGroup:
    """Enumerate the ray class group modulo f (narrow by default): ideals
    coprime to f up to the norm bound, quotiented by principality with a
    generator congruent to 1 mod f (totally positive in the narrow case).
    Each ideal is classified by its _ray_key: one principal test per
    ordinary class met before its own, and one dict lookup.  norm_bound is
    the starting bound: while a product of representatives escapes the
    enumerated classes, the ideals of norm up to twice the bound are
    enumerated too, and past _MAX_NORM_BOUND it raises BoundExceeded.  As
    the enumeration runs in ascending norm, this equals a restart at the
    doubled bound.  The multiplication table is verified (closure,
    identity, inverses, associativity)."""
    F = f.field
    units = unit_mod_f(F, f)
    bases: list[tuple[QuadIdeal, QuadIdeal]] = []
    index: dict = {}  # _ray_key -> class
    members: list[list[QuadIdeal]] = []
    products: dict = {}  # (i, j) -> class of rep_i * rep_j, j >= i
    above = 0
    while True:
        # (1) comes first, so class 0 is the principal class
        for I in _enumerate_coprime_ideals(F, f, norm_bound, above):
            key = _ray_key(I, bases, variant, units)
            if key is None:
                base, own = _new_base(I, f, variant, units)
                key = (len(bases), own)
                bases.append(base)
            idx = index.get(key)
            if idx is not None:
                members[idx].append(I)
                continue
            index[key] = len(members)
            members.append([I])
            if len(members) > _MAX_RAY_CLASSES:
                raise BoundExceeded(
                    "more than %d ray classes at norm bound %d"
                    % (_MAX_RAY_CLASSES, norm_bound)
                )
        k = len(members)
        # ideal products commute, and rep_i * rep_j and rep_j * rep_i have
        # the same HNF, so each entry with j >= i is looked up and mirrored
        for i, j in combinations_with_replacement(range(k), 2):
            if (i, j) not in products:
                idx = index.get(_ray_key(members[i][0] * members[j][0],
                                         bases, variant, units))
                if idx is None:
                    break
                products[i, j] = idx
        else:
            break
        above, norm_bound = norm_bound, 2 * norm_bound
        if norm_bound > _MAX_NORM_BOUND:
            raise BoundExceeded("product of class representatives escapes the "
                                "enumerated classes up to norm bound %d"
                                % _MAX_NORM_BOUND)
    table = tuple(tuple(products[min(i, j), max(i, j)] for j in range(k))
                  for i in range(k))
    # verify the group axioms on the table
    for i in range(k):
        if table[0][i] != i or table[i][0] != i:
            raise ArithmeticError("identity axiom fails in ray class table")
        if 0 not in table[i]:
            raise ArithmeticError("no inverse for class %d" % i)
    for i in range(k):
        for j in range(k):
            for m in range(k):
                if table[table[i][j]][m] != table[i][table[j][m]]:
                    raise ArithmeticError("associativity fails in ray class table")
    return RayClassGroup(modulus=f, variant=variant,
                         members=tuple(map(tuple, members)), table=table,
                         units=units, bases=tuple(bases), index=index)


# ---------------------------------------------------------------------------
# algebraic recognition and Stark's conjecture on Cl_{f oo2}
# ---------------------------------------------------------------------------


def recognize_quadratic(x, D: int, max_height: int = 12, tol: float = 1e-6,
                        ctx: PrecisionCtx = DEFAULT_CTX):
    """Try to recognize a real number as a + b sqrt(D) with rational a, b of
    height at most max_height (capped at 12), by exhaustive search.  Returns
    (a, b, residual), a and b as Fractions, or None."""
    with ctx.workprec():
        x = mp.mpf(x)
        sq = mp.sqrt(D)
        if abs(x) <= tol:
            return (Fraction(0), Fraction(0), abs(x))
        best = None
        H = min(max_height, 12)
        for tden in range(1, H + 1):
            for r in range(-H * tden, H * tden + 1):
                b = Fraction(r, tden)
                rem = x - mpf_from_fraction(b) * sq
                a = Fraction(float(rem)).limit_denominator(H)
                if abs(a.numerator) > H * H:
                    continue
                resid = abs(x - (mpf_from_fraction(a) + mpf_from_fraction(b) * sq))
                if resid <= tol:
                    h = max(abs(a.numerator), a.denominator,
                            abs(b.numerator), b.denominator)
                    cand = (h, float(resid), a, b)
                    if best is None or cand[:2] < best[:2]:
                        best = cand
        if best is not None:
            return (best[2], best[3], best[1])
        return None


# Candidates recognize_integer examines before it gives up.
_MAX_RECOGNITION_WINDOW = 100_000


def recognize_integer(c, F: FieldCtx, bound: int, tol, ctx: PrecisionCtx = DEFAULT_CTX):
    """The algebraic integer alpha = u + v omega of F with |alpha - c| <= tol
    and |alpha'| <= bound (decided exactly), or None.  As alpha - alpha' =
    v (omega - omega'), v lies within (tol + bound)/(omega - omega') of
    c/(omega - omega').  Raises ConvergenceError when two alpha qualify, and
    BoundExceeded past _MAX_RECOGNITION_WINDOW candidates."""
    t = F.omega_trace
    with ctx.workprec():
        c, tol, sq = mp.mpf(c), mp.mpf(tol), mp.sqrt(F.D)
        omega, gap = (t + sq) / (1 + t), 2 * sq / (1 + t)
        vs = range(int(mp.ceil((c - tol - bound) / gap)),
                   int(mp.floor((c + tol + bound) / gap)) + 1)
        if len(vs) * (int(2 * tol) + 1) > _MAX_RECOGNITION_WINDOW:
            raise BoundExceeded("more than %d candidates within %s of %s" % (
                _MAX_RECOGNITION_WINDOW, mp.nstr(tol, 3), mp.nstr(c, 8)))
        # alpha' = ((1 + t) u + t v - v sqrt(D)) / (1 + t)
        hits = [F.from_coords(u, v) for v in vs
                for u in range(int(mp.ceil(c - v * omega - tol)),
                               int(mp.floor(c - v * omega + tol)) + 1)
                if _sign_surd((1 + t) * (u - bound) + t * v, -v, F.D) <= 0
                <= _sign_surd((1 + t) * (u + bound) + t * v, -v, F.D)]
        if len(hits) > 1:
            raise ConvergenceError("%d algebraic integers lie within %s of %s: the "
                                   "error target does not separate them"
                                   % (len(hits), mp.nstr(tol, 3), mp.nstr(c, 8)))
        return hits[0] if hits else None


def pair_for_class(f: QuadIdeal, a: QuadIdeal) -> StarkInput:
    """The canonical validated pair attached to an ideal a coprime to f:
    L = f conj(a), l0 = N(a).  Its a0-class is the class of a."""
    return validate_pair(f * a.conjugate(), f.field.elem(a.norm()))


@dataclass(frozen=True)
class ClassEntry:
    index: int
    representative_hnf: tuple
    zeta_prime_0: mp.mpf
    s0: mp.mpf
    invariance_residual: mp.mpf | None  # None where S0 was set as 1/S0(C)


@dataclass(frozen=True)
class CoefficientEntry:
    degree: int
    value: mp.mpf
    recognized: tuple | None  # (a: Fraction, b: Fraction), a + b sqrt(D), or None


@dataclass(frozen=True)
class ConjectureReport:
    classes: tuple  # of ClassEntry, one per class of Cl_{f oo2}
    coefficients: tuple  # of CoefficientEntry
    recognition_failures: tuple
    inversion_residual: mp.mpf
    tolerance: mp.mpf
    passed: bool


def conjecture_check(f: QuadIdeal, ctx: PrecisionCtx = DEFAULT_CTX) -> ConjectureReport:
    """Stark's rank-one conjecture on G = Cl_{f oo2}, the narrow ray classes
    mod f modulo R1, the class of delta1 = 1 - N(f) sqrt(D) (== 1 mod f,
    delta1 < 0 < delta1').  S0 is constant on R1-cosets and S0(C R2) =
    1/S0(C), R2 the class of delta2 = 1 + N(f) sqrt(D): each <R1, R2>-orbit
    needs one Stark number, and one more in C R1 (in C if R1 is trivial)
    gates the invariance; one in R2 gates the inversion.  A gating pair's
    reduced lattice is not that of a pair it is compared with, nor for the
    inversion a conjugate, on which it would pass by construction.  The
    relative residuals |S0(C R1)/S0(C) - 1| and |S0(R2) S0(1) - 1| pass
    within 100 times the error target.  Each coefficient c_k of
    Q = prod_G (X - S0(C)) must be one algebraic integer alpha within the
    error target of c_k (relative past 1) with |alpha'| <= binomial(|G|, k):
    the Stark unit has absolute value 1 above oo2.  Pairs are pair_for_class
    of members coprime to conj(f) (condition (i)), else BoundExceeded."""
    F = f.field
    group = ray_classes(f)
    table, conj_f, n = group.table, f.conjugate(), f.norm()
    R1, R2 = (group.class_index(QuadIdeal.principal(F, F.elem(1, y))) for y in (-n, n))

    def pair_in(k: int, avoid=()) -> StarkInput:
        for a in group.members[k]:
            if a.coprime(conj_f) and (inp := pair_for_class(f, a)).reduced().L not in avoid:
                return inp
        raise BoundExceeded("ray class %d has no member for a pair off %d lattices"
                            % (k, len(avoid)))

    with ctx.workprec():
        tol = 100 * mp.mpf(ctx.target_abs_err)
        s0, entries = {}, []  # s0: narrow class -> S0
        for k in range(len(group)):
            if k in s0:
                continue
            first = pair_in(k)
            partner = pair_in(table[k][R1], avoid={first.reduced().L})
            res = stark_number(first, ctx)
            resid = abs(stark_number(partner, ctx).s0 / res.s0 - 1)
            if k == 0:
                gated = {M for inp in (first, partner)
                         for M in (inp.reduced().L, inp.reduced().L.conjugate())}
            for c, zp, value, r in ((k, res.zeta_prime_0, res.s0, resid),
                                    (table[k][R2], -res.zeta_prime_0, 1 / res.s0, None)):
                if c not in s0:  # else R2 lies in <R1>
                    s0[c] = s0[table[c][R1]] = value
                    i = min(c, table[c][R1])
                    entries.append(ClassEntry(i, group.reps[i].hnf(), zp, value, r))
        entries.sort(key=lambda e: e.index)
        inversion = abs(stark_number(pair_in(R2, avoid=gated), ctx).s0 * s0[0] - 1)
        coeffs = [mp.mpf(1)]  # of X^0, X^1, ...
        for e in entries:
            coeffs = [a - e.s0 * b for a, b in zip([0] + coeffs, coeffs + [0])]
        recognized = [recognize_integer(c, F, math.comb(len(entries), k),
                                        ctx.target_abs_err * max(1, abs(c)), ctx)
                      for k, c in enumerate(coeffs)]
        worst = max([inversion] + [e.invariance_residual for e in entries
                                   if e.invariance_residual is not None])
    failures = tuple(k for k, alpha in enumerate(recognized) if alpha is None)
    return ConjectureReport(
        classes=tuple(entries),
        coefficients=tuple(
            CoefficientEntry(k, c, None if alpha is None else (alpha.x, alpha.y))
            for k, (c, alpha) in enumerate(zip(coeffs, recognized))),
        recognition_failures=failures,
        inversion_residual=inversion,
        tolerance=tol,
        passed=not failures and worst <= tol,
    )
