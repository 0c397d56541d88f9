"""Test oracles: slow, independent versions of what the package computes,
for the tests to compare against.  The package itself calls none of them.

- numeric_derivative: the 5-point central difference, with its error
  estimated by halving the step.
- pell_fundamental_unit: the fundamental unit by a scan of the norm
  equation.
- canonicalize_into_slice: an orbit representative by repeated unit steps.
- coset_slice_rows_reference: the slice rows by a float64-prefiltered scan
  of the whole box around the slice.
- partial_zeta_direct_reference: the direct partial zeta sum over QuadElem
  representatives with Fraction norms.
- theta_complex_reference: the complex lattice theta over a disk, one expjpi
  per lattice point at twice the working precision.
- ray_equivalent_reference, ray_classes_reference: the pairwise exact
  ray-equivalence test, and the ray class group built by testing each
  ideal against every class representative in turn, restarting the
  enumeration at each doubled bound.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath as mp
import numpy as np

from starklab.hecke import scalar_product
from starklab.numerics import DEFAULT_CTX, BoundExceeded, ConvergenceError, PrecisionCtx
from starklab.pseudolattice import coset_slice_reps
from starklab.quadfield import (
    FieldCtx,
    QuadElem,
    _float_embed,
    _omega_mul,
    _sign_surd,
    unit_mod_f,
)
from starklab.stark import (
    StarkInput,
    _congruence_ideal,
    _enumerate_coprime_ideals,
    _smooth_weight,
)


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


def pell_fundamental_unit(D: int, bound: int = 4000) -> QuadElem | None:
    """Brute-force oracle: the smallest unit > 1 of O_K found by scanning
    omega-coordinates 1 <= v <= bound (ascending) and solving the norm
    equation for the rational coordinate.  The scan stops once no unit
    smaller than the best candidate can appear at larger v."""
    F = FieldCtx(D)
    t, n = F.omega_trace, F.omega_norm
    best: QuadElem | None = None
    for v in range(1, bound + 1):
        if best is not None:
            # any unit e > 1 has v-coordinate > (e - 1)/sqrt(D)
            if v * v * D > (1 + _float_embed(best)) ** 2:
                break
        for target in (1, -1):
            # N(u + v*omega) = u^2 + t v u + n v^2 = target
            disc = t * t * v * v - 4 * (n * v * v - target)
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for num in (-t * v + r, -t * v - r):
                if num % 2 == 0:
                    e = F.from_coords(num // 2, v)
                    if e.compare(1) > 0 and (best is None or e.compare(best) < 0):
                        best = e
    return best


def canonicalize_into_slice(xi: QuadElem, u: QuadElem, W: QuadElem) -> QuadElem:
    """Independent representative normalizer: multiply xi by powers of the
    unit u (with W = u/u') until tau^2 = (xi/xi')^2 lands in (1/W, W]."""
    def too_high(z):
        return (W * (z.conjugate() ** 2) - z * z).sign() < 0

    def too_low(z):
        return (W * z * z - z.conjugate() ** 2).sign() <= 0

    guard = 0
    while too_high(xi):
        xi = xi / u
        guard += 1
        if guard > 10000:
            raise ArithmeticError("slice normalization did not terminate")
    while too_low(xi):
        xi = xi * u
        guard += 1
        if guard > 10000:
            raise ArithmeticError("slice normalization did not terminate")
    return xi


def _float_embed_conj(e: QuadElem) -> float:
    return float(e.x) - float(e.y) * math.sqrt(e.D)


def coset_slice_rows_reference(L, l0, W, max_norm):
    """The rows of pseudolattice.coset_slice_rows, (den, [(n, a, b, x, y)])
    sorted, by a scan of the whole box around the square |xi|, |xi'| <=
    sqrt(X sqrt(W)) in lattice coordinates: a float64 prefilter with a wide
    margin over every box point, then the exact norm and slice tests on
    each survivor.  Raises BoundExceeded when the box holds more than 10^8
    lattice points."""
    if not (W.is_totally_positive() and W > QuadElem(W.D, 1)):
        raise ValueError("W must be totally positive and > 1")
    X = float(max_norm)
    g1r, g1c = _float_embed(L.l1), _float_embed_conj(L.l1)
    g2r, g2c = _float_embed(L.l2), _float_embed_conj(L.l2)
    l0r, l0c = _float_embed(l0), _float_embed_conj(l0)
    Wr = _float_embed(W)
    w = math.sqrt(Wr)
    B = math.sqrt(X * w) * (1 + 1e-9) + 1e-12
    det = g1r * g2c - g2r * g1c
    corners_a, corners_b = [], []
    for sx in (-1, 1):
        for sy in (-1, 1):
            rx, ry = sx * B - l0r, sy * B - l0c
            corners_a.append((rx * g2c - ry * g2r) / det)
            corners_b.append((g1r * ry - g1c * rx) / det)
    amin, amax = math.floor(min(corners_a)) - 1, math.ceil(max(corners_a)) + 1
    bmin, bmax = math.floor(min(corners_b)) - 1, math.ceil(max(corners_b)) + 1
    points = (amax - amin + 1) * (bmax - bmin + 1)
    if points > 10**8:
        raise BoundExceeded("the slice box holds %.2g lattice points, more than 1e+08" % points)

    candidates = []
    bs = np.arange(bmin, bmax + 1)
    chunk = max(1, int(4_000_000 / max(1, len(bs))))
    for a0 in range(amin, amax + 1, chunk):
        a_arr = np.arange(a0, min(a0 + chunk, amax + 1))
        A, Bb = np.meshgrid(a_arr, bs, indexing="ij")
        xr = l0r + A * g1r + Bb * g2r
        xc = l0c + A * g1c + Bb * g2c
        absN = np.abs(xr * xc)
        r2, c2 = xr * xr, xc * xc
        keep = (
            (absN <= X * (1 + 1e-6))
            & (absN > 1e-12)
            & (r2 <= Wr * c2 * (1 + 1e-6) + 1e-9)
            & (Wr * r2 * (1 + 1e-6) + 1e-9 >= c2)
        )
        ka, kb = A[keep], Bb[keep]
        candidates.extend(zip(ka.tolist(), kb.tolist()))

    # exact verification on common-denominator integer coordinates
    D = L.field.D
    gens = (l0, L.l1, L.l2)
    den = math.lcm(*(c.denominator for g in gens for c in (g.x, g.y)))
    x0, x1, x2 = (int(g.x * den) for g in gens)
    y0, y1, y2 = (int(g.y * den) for g in gens)
    wd = math.lcm(W.x.denominator, W.y.denominator)
    Wx, Wy = int(W.x * wd), int(W.y * wd)
    max_norm_fr = Fraction(max_norm)
    # |x^2 - D y^2| <= max_norm * den^2, cleared of the max_norm denominator
    norm_num = max_norm_fr.numerator * den * den
    norm_den = max_norm_fr.denominator
    kept = []
    for a, b in candidates:
        x = x0 + a * x1 + b * x2
        y = y0 + a * y1 + b * y2
        xx, dyy = x * x, D * y * y
        n = xx - dyy
        if n == 0 or abs(n) * norm_den > norm_num:
            continue
        # den^2 xi^2 = P + Q sqrt(D) and den^2 xi'^2 = P - Q sqrt(D)
        P = xx + dyy
        Q = 2 * x * y
        # upper bound, closed: W xi'^2 - xi^2 >= 0
        if _sign_surd((Wx - wd) * P - D * Wy * Q, Wy * P - (Wx + wd) * Q, D) < 0:
            continue
        # lower bound, open: W xi^2 - xi'^2 > 0
        if _sign_surd((Wx - wd) * P + D * Wy * Q, Wy * P + (Wx + wd) * Q, D) <= 0:
            continue
        kept.append((abs(n), a, b, x, y))
    # |N| = n / den^2 with one den for all, so integer n sorts as |N| does
    kept.sort()
    return den, kept



def partial_zeta_direct_reference(inp: StarkInput, s, ctx: PrecisionCtx, max_norm):
    """The direct sum of stark.partial_zeta_direct with cutoff max_norm,
    over the representatives of coset_slice_reps: sgn(xi') from the
    QuadElem conjugate and |N(xi)| as float(Fraction)."""
    inp = inp.reduced()
    s = complex(s)
    if s.real <= 1.5:
        raise ConvergenceError(
            "direct summation requires Re(s) > 1.5, got %s" % s.real
        )
    g = inp.unit.eps_f
    W = g * g
    reps = coset_slice_reps(inp.lattice, inp.l0, W, max_norm)
    if not reps:
        return mp.mpc(0)
    terms = [xi.conjugate().sign() * _smooth_weight(float(n) / max_norm) * float(n) ** -s
             for xi, _, _, n in reps]
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    with ctx.workprec():
        pref = inp.sign_l0_conj * mp.power(inp.b.norm(), s)
        return mp.mpc(pref * total)


def theta_complex_reference(g1, g2, lam0, mu0, etas, v, radius, bits):
    """The sum of theta.theta_complex over the points z = lam0 + m g1 + n g2
    with |z| <= radius, for each eta in etas: one expjpi of
    v |z|^2 - 2 (lambda . mu0) - (lam0 . mu0) per point, lambda = z - lam0, at
    2 bits of precision.  The points come from the box that the disk fits in
    (|m| <= (radius + |lam0|) |g2| / covol, and likewise n), prefiltered in
    float64 with a margin and tested in mpmath.  Returns a list
    of (value, sum of |terms|), one per eta."""
    with mp.workprec(2 * bits):
        g1, g2, lam0, mu0, v = (mp.mpc(x) for x in (g1, g2, lam0, mu0, v))
        etas = [mp.mpc(eta) for eta in etas]
        radius = mp.mpf(radius)
        covol = abs(g1.real * g2.imag - g2.real * g1.imag)
        reach = radius + abs(lam0)
        mmax = int(mp.ceil(reach * abs(g2) / covol))
        nmax = int(mp.ceil(reach * abs(g1) / covol))
        const = scalar_product(lam0, mu0)
        # a float64 prefilter with a margin, then the exact test
        f1, f2, fl0, fr = complex(g1), complex(g2), complex(lam0), float(radius) + 1e-6
        sums = [[mp.mpc(0), mp.mpf(0)] for _ in etas]
        for m in range(-mmax, mmax + 1):
            for n in range(-nmax, nmax + 1):
                if abs(fl0 + m * f1 + n * f2) > fr:
                    continue
                lam = m * g1 + n * g2
                z = lam0 + lam
                modsq = z.real * z.real + z.imag * z.imag
                if modsq > radius * radius:
                    continue
                x = mp.expjpi(v * modsq - 2 * scalar_product(lam, mu0) - const)
                for s, eta in zip(sums, etas):
                    term = scalar_product(z, eta) * x
                    s[0] += term
                    s[1] += abs(term)
        return [(+value, +size) for value, size in sums]


def ray_equivalent_reference(A, B, f, variant, units):
    """A B^{-1} = (alpha) with alpha == 1 mod* f, and totally positive in
    the narrow variant.  With n = N(B), alpha = gamma/n for a generator
    gamma of A conj(B); the candidates +-gamma eps0^k are walked as
    residues mod f (n)_f and compared with +-n, and the sign pair of
    +-gamma eps0^k, +-(sgn gamma, sgn gamma' * sgn(eps0')^k), must be
    realized by a unit == 1 mod f."""
    F = A.field
    n = B.norm()
    gen = (A * B.conjugate()).generator_coords()
    if gen is None:
        return False
    target = _congruence_ideal(n, f)
    r = target._residue(gen)
    u, v = gen
    x = 2 * u + v if F.omega_trace else u
    sgn, sgn_conj = _sign_surd(x, v, F.D), _sign_surd(x, -v, F.D)
    plus, minus = target._residue((n, 0)), target._residue((-n, 0))
    for _ in range(units.order):
        for m, res in ((1, plus), (-1, minus)):
            if r == res and (variant == "wide" or (m * sgn, m * sgn_conj) in units.signs):
                return True
        r = target._residue(_omega_mul(F, r, units.step))
        sgn_conj *= units.eps0_norm
    return False


def ray_classes_reference(f, variant, norm_bound=30, max_classes=64, max_norm_bound=960):
    """(members, table) of the ray class group mod f: each enumerated ideal
    joins the first representative it is ray_equivalent_reference to, and
    while a product of representatives escapes, everything is enumerated
    again at twice the bound.  Raises BoundExceeded past max_classes or
    max_norm_bound, and ArithmeticError on a table that is not a group."""
    F = f.field
    units = unit_mod_f(F, f)

    def class_of(I, reps):
        return next((k for k, R in enumerate(reps)
                     if ray_equivalent_reference(I, R, f, variant, units)), None)

    while True:
        reps, members = [], []
        for I in _enumerate_coprime_ideals(F, f, norm_bound):
            idx = class_of(I, reps)
            if idx is not None:
                members[idx].append(I)
                continue
            reps.append(I)
            members.append([I])
            if len(reps) > max_classes:
                raise BoundExceeded("more than %d ray classes" % max_classes)
        k = len(reps)
        table = [[0] * k for _ in range(k)]
        for i, j in combinations_with_replacement(range(k), 2):
            idx = class_of(reps[i] * reps[j], reps)
            if idx is None:
                break
            table[i][j] = table[j][i] = idx
        else:
            break
        norm_bound *= 2
        if norm_bound > max_norm_bound:
            raise BoundExceeded("product escapes up to norm bound %d" % max_norm_bound)
    for i in range(k):
        if table[0][i] != i or table[i][0] != i or 0 not in table[i]:
            raise ArithmeticError("not a group table")
        for j in range(k):
            for m in range(k):
                if table[table[i][j]][m] != table[i][table[j][m]]:
                    raise ArithmeticError("associativity fails")
    return tuple(map(tuple, members)), tuple(map(tuple, table))
