"""Pseudolattices L = Z*l1 + Z*l2 inside a real quadratic field: orientation,
endomorphism rings and conductors, trace-duals, the discriminant-area
Delta(L), GL(2,Z)/SL(2,Z) equivalence by continued-fraction tails, exact
enumeration of unit-orbit representatives on shifted pseudolattices, and
their fold by norm into sign sums per trace character."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import mpmath as mp

from .numerics import DEFAULT_CTX, BoundExceeded, PrecisionCtx
from .quadfield import (
    FieldCtx,
    QuadElem,
    QuadIdeal,
    _cf_normalize,
    _cf_unit,
    _cf_walk,
    _cf_witness,
    _float_embed,
    _sign_surd,
)


@dataclass(frozen=True)
class IntMat2:
    """2x2 integer matrix (a b; c d) acting by fractional-linear maps."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def mobius(self, theta: QuadElem) -> QuadElem:
        num = QuadElem(theta.D, self.b) + self.a * theta
        den = QuadElem(theta.D, self.d) + self.c * theta
        return num / den

    @staticmethod
    def identity() -> "IntMat2":
        return IntMat2(1, 0, 0, 1)


class Pseudolattice:
    """Rank-2 Z-module Z*l1 + Z*l2 in K = Q(sqrt(D)) with dense image in R."""

    __slots__ = ("field", "l1", "l2", "orientation")

    def __init__(self, field: FieldCtx, l1: QuadElem, l2: QuadElem, orientation: int = 1):
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if l1.D != field.D or l2.D != field.D:
            raise ValueError("generators must live in the given field")
        self.field = field
        self.l1 = l1
        self.l2 = l2
        self.orientation = orientation
        if self.cross().is_zero():
            raise ValueError("generators are rationally dependent")

    # -- exact linear algebra -------------------------------------------------
    def cross(self) -> QuadElem:
        """l1*l2' - l1'*l2 (a pure sqrt(D) multiple)."""
        return self.l1 * self.l2.conjugate() - self.l1.conjugate() * self.l2

    def delta_exact(self) -> Fraction:
        """Delta(L) = |l1 l2' - l1' l2| as the rational q with Delta = q*sqrt(D)."""
        z = self.cross()
        assert z.x == 0
        return abs(z.y)

    def coords(self, e: QuadElem) -> tuple[Fraction, Fraction]:
        """(p, q) with e = p*l1 + q*l2, exact (solves in the (1, sqrt D) basis)."""
        det = self.l1.x * self.l2.y - self.l1.y * self.l2.x
        p = (e.x * self.l2.y - e.y * self.l2.x) / det
        q = (self.l1.x * e.y - self.l1.y * e.x) / det
        return p, q

    def contains(self, e: QuadElem) -> bool:
        p, q = self.coords(e)
        return p.denominator == 1 and q.denominator == 1

    def __eq__(self, other):
        if not isinstance(other, Pseudolattice):
            return NotImplemented
        return (
            self.field.D == other.field.D
            and self.contains(other.l1)
            and self.contains(other.l2)
            and other.contains(self.l1)
            and other.contains(self.l2)
            and self.orientation == other.orientation
        )

    def __hash__(self):
        raise TypeError("pseudolattices are compared by module equality; not hashable")

    def __repr__(self):
        return (
            f"Pseudolattice(D={self.field.D}, l1={self.l1}, l2={self.l2}, "
            f"or={self.orientation})"
        )

    def theta(self) -> QuadElem:
        """The ratio l2/l1 classified by fractional-linear equivalence."""
        return self.l2 / self.l1


def ideal_to_pseudolattice(I: QuadIdeal, orientation: int = 1) -> Pseudolattice:
    g1, g2 = I.module_generators()
    return Pseudolattice(I.field, g1, g2, orientation)


def delta(L: Pseudolattice, ctx: PrecisionCtx = DEFAULT_CTX):
    """Delta(L) embedded at working precision."""
    q = L.delta_exact()
    with ctx.workprec():
        return +(mp.mpf(q.numerator) / q.denominator * mp.sqrt(L.field.D))


@dataclass(frozen=True)
class OrderData:
    """End(L) = Z + f*O_K described by its conductor."""

    conductor: int


def endomorphism_ring(L: Pseudolattice) -> OrderData:
    """End L = {a in K : aL <= L}: the conductor is the least k >= 1 with
    k*omega*L <= L, read off exactly from the coordinates of omega*l_i."""
    F = L.field
    denoms = []
    for li in (L.l1, L.l2):
        p, q = L.coords(li * F.omega)
        denoms.append(p.denominator)
        denoms.append(q.denominator)
    f = math.lcm(*denoms)
    fomega = F.elem(f) * F.omega
    # sanity: f*omega must stabilize, and no proper divisor of f may
    for li in (L.l1, L.l2):
        assert L.contains(li * fomega)
    return OrderData(conductor=f)


def dual(L: Pseudolattice) -> Pseudolattice:
    """Trace-dual L^? = {m : tr(l' m) in Z for all l in L}; generators solve
    tr(l_i' m_j) = delta_ij.  tr(l'm) = 2(ax - D b y) for l = a+b sqrt(D),
    m = x+y sqrt(D)."""
    D = L.field.D
    a1, b1 = L.l1.x, L.l1.y
    a2, b2 = L.l2.x, L.l2.y
    # solve [[2a1, -2Db1], [2a2, -2Db2]] (x, y)^T = e_j by Cramer
    det = 4 * D * (b1 * a2 - a1 * b2)
    m1 = QuadElem(D, Fraction(-2 * D * b2) / det, Fraction(-2 * a2) / det)
    m2 = QuadElem(D, Fraction(2 * D * b1) / det, Fraction(2 * a1) / det)
    out = Pseudolattice(L.field, m1, m2, L.orientation)
    # verify the defining pairing exactly
    for i, li in enumerate((L.l1, L.l2)):
        for j, mj in enumerate((m1, m2)):
            tr = (li.conjugate() * mj).trace()
            assert tr == (1 if i == j else 0), "dual solve failed"
    return out


def apply_morphism(g: IntMat2, L: Pseudolattice) -> Pseudolattice:
    """New generators (a*l2 + b*l1, c*l2 + d*l1); orientation scales by
    sign(det g)."""
    if g.det() == 0:
        raise ValueError("morphism must have nonzero determinant")
    new_l2 = g.a * L.l2 + g.b * L.l1
    new_l1 = g.c * L.l2 + g.d * L.l1
    sign = 1 if g.det() > 0 else -1
    return Pseudolattice(L.field, new_l1, new_l2, L.orientation * sign)


def k0_pseudolattice(theta: QuadElem) -> Pseudolattice:
    """The trace image Z + Z*theta of a quantum torus, with the standard
    positive-cone orientation {m + n*theta > 0}."""
    if theta.y == 0:
        raise ValueError("rational theta is degenerate (no dense pseudolattice)")
    F = FieldCtx(theta.D)
    return Pseudolattice(F, F.elem(1), theta, 1)


def effective_cone_contains(L: Pseudolattice, m: int, n: int) -> bool:
    """Exact membership of m*l1 + n*l2 in the effective (positive) cone."""
    return (m * L.l1 + n * L.l2).sign() * L.orientation > 0


@dataclass(frozen=True)
class AutomorphismGroup:
    generator: QuadElem  # fundamental stabilizing unit > 1
    cf_cycle: tuple  # the partial quotients of one period of l2/l1


def automorphism_group(L: Pseudolattice) -> AutomorphismGroup:
    """Units of End L, {+-1} times the powers of the unit > 1 that one period
    of the continued fraction of l2/l1 gives (_cf_unit), which is the
    fundamental unit of the conductor-f order; with that period."""
    D = L.field.D
    quotients, keys, start = _cf_walk(D, _cf_normalize(L.theta()))
    gen = _cf_unit(D, quotients, keys, start)
    assert L.contains(gen * L.l1) and L.contains(gen * L.l2)
    assert L.contains(L.l1 / gen) and L.contains(L.l2 / gen)
    return AutomorphismGroup(generator=gen, cf_cycle=tuple(quotients[start:]))


# ---------------------------------------------------------------------------
# GL(2,Z)/SL(2,Z) equivalence via continued-fraction tails
# ---------------------------------------------------------------------------


def is_isomorphic(L1: Pseudolattice, L2: Pseudolattice, oriented: bool = True):
    """Decides equivalence of theta_i = l2_i/l1_i under GL(2,Z) (SL(2,Z) when
    oriented) by matching continued-fraction tails exactly.

    Returns (flag, witness) with witness g satisfying g . theta1 = theta2."""
    if L1.field.D != L2.field.D:
        return False, None
    D = L1.field.D
    th1, th2 = L1.theta(), L2.theta()
    q1, keys1, _ = _cf_walk(D, _cf_normalize(th1))
    q2, keys2, s2 = _cf_walk(D, _cf_normalize(th2))
    # extend the second expansion to two full cycles so both parities of the
    # matching index are observable
    ext_q2 = q2 + q2[s2:]
    index2: dict = {}
    for j, key in enumerate(keys2 + keys2[s2:]):
        index2.setdefault(key, []).append(j)
    for k, key in enumerate(keys1):
        for j in index2.get(key, ()):
            if oriented and (k + j) % 2 != 0:
                continue
            g = IntMat2(*_cf_witness(q1[:k], ext_q2[:j]))
            assert g.mobius(th1) == th2
            if oriented:
                assert g.det() == 1
            return True, g
    return False, None


# ---------------------------------------------------------------------------
# exact unit-orbit slice enumeration on shifted pseudolattices
# ---------------------------------------------------------------------------


# Lattice points past which coset_slice_rows refuses to walk its sub-slice
# triangles: their area over the covolume plus their rows, counted before
# any row is walked.  The walk takes about 1.3 s and 230 MB per 1e6 kept
# rows (D=5 and D=2 at 5e5 rows; 2-core Xeon VM, Python 3.11.7); a walk just
# under the cap (D=5, 4.4e6 rows) took 8.8 s and 1.07 GB.  The largest count
# in the test suite that is walked is 1.8e5.
_MAX_BOX_POINTS = 5 * 10**6

# coset_slice_rows' running count of the work it does, for the tests: rows
# solved, plus lattice points kept or tested one by one at a slice boundary.
_EXAMINED = [0]


def _dyadic(v: float) -> Fraction:
    """v > 0 rounded to 30 significant bits, as an exact fraction."""
    m, e = math.frexp(v)
    return Fraction(round(math.ldexp(m, 30))) * Fraction(2) ** (e - 30)


def _unit_log(eps) -> float:
    """log(eps) in float64 for a unit eps > 1 given at working precision, half
    the log of the slice ratio W = eps^2; BoundExceeded past the float range
    (W past about 10^616), where a walk's float planning would overflow."""
    if math.isinf(x := float(eps)):
        raise BoundExceeded("the slice ratio W = eps^2 is about 10^%d, past the float range "
                            "of the planning" % int(2 * mp.log10(eps)))
    return math.log(x)


def _sub_slices(W: QuadElem) -> list[Fraction]:
    """Rational cuts r_0 < r_1 < ... < r_k of the ratio |xi/xi'| for the
    slice tau^2 in (1/W, W]: r_0 < 1/sqrt(W) and r_k > sqrt(W) (exactly, so
    the outer pieces cover the slice's ends), and successive ratios of at
    most about e^2, whose bounding triangles have 1.18 times the area of
    their pieces."""
    # log W from W / 2^e, which a float holds; below 2^1000, e = 0 and no cut moves
    e = max(0, int(W.x).bit_length() - 1000)
    log_w = (math.log(_float_embed(W * Fraction(1, 2 ** e))) + e * math.log(2)) / 2
    k = max(1, math.ceil(log_w))
    ends = [_dyadic(math.exp(-log_w) * (1 - 2 ** -24)), _dyadic(math.exp(log_w) * (1 + 2 ** -24))]
    while (W * ends[0] * ends[0]).compare(1) >= 0:
        ends[0] *= Fraction(2 ** 24 - 1, 2 ** 24)
    while (W * ends[1] * ends[1]).compare(1) <= 0:
        ends[1] *= Fraction(2 ** 24 + 1, 2 ** 24)
    return [ends[0]] + [_dyadic(math.exp(log_w * (2 * j / k - 1))) for j in range(1, k)] + [ends[1]]


def _embed_pair(x: int, y: int, D: int, rd: float) -> tuple[float, float]:
    """x + y sqrt(D) and x - y sqrt(D) in float64, rd = sqrt(D), each to a
    few ulp: the one whose terms cancel is the exact integer norm divided by
    the other."""
    if x * y >= 0:
        e = x + y * rd
        return e, ((x * x - D * y * y) / e if e else 0.0)
    e = x - y * rd
    return (x * x - D * y * y) / e, e


def _positive_run(r0: int, t0: int, r1: int, t1: int, D: int):
    """The integers b with (r0 + r1 b) + (t0 + t1 b) sqrt(D) > 0, a function
    linear in b, as (lo, hi) with None for an unbounded end; (1, 0) when
    there are none.  The root -(r0 + t0 sqrt D)/(r1 + t1 sqrt D) is
    (al + be sqrt D)/ga, and its floor comes from isqrt(D be^2)."""
    s1 = _sign_surd(r1, t1, D)
    if s1 == 0:
        return (None, None) if _sign_surd(r0, t0, D) > 0 else (1, 0)
    al, be, ga = D * t0 * t1 - r0 * r1, r0 * t1 - t0 * r1, r1 * r1 - D * t1 * t1
    if ga < 0:
        al, be, ga = -al, -be, -ga
    root = math.isqrt(D * be * be)
    # be sqrt(D) is irrational unless be = 0, so its floor is -root - 1 for be < 0
    fl = (al + (root if be >= 0 else -root - 1)) // ga
    if s1 > 0:
        return fl + 1, None
    return None, (fl - 1 if be == 0 and al % ga == 0 else fl)


def _quadratic_run(A: int, B: int, C: int):
    """The integers b with A b^2 + B b + C <= 0, A > 0, as (lo, hi); (1, 0)
    when there are none."""
    disc = B * B - 4 * A * C
    if disc < 0:
        return 1, 0
    s = math.isqrt(disc)
    return -((B + s) // (2 * A)), (s - B) // (2 * A)


def _gauss_reduce(u, w, embed):
    """Lagrange-Gauss reduction of the basis u, w, each a tuple of integer
    coordinates of a lattice vector whose image in the plane is the complex
    float embed(v).  The steps are chosen in float64, and each image is
    recomputed from the exact coordinates, so no rounding accumulates.
    Returns (short, long) with |short| <= |long| and |Re(short conj(long))|
    <= |short|^2 / 2, up to float64 rounding."""
    fu, fw = embed(u), embed(w)
    while True:
        if abs(fu) > abs(fw):
            u, w, fu, fw = w, u, fw, fu
        x = (fu.conjugate() * fw).real / (fu.real * fu.real + fu.imag * fu.imag)
        # a tie |x| = 1/2 is reduced already; float rounding must not turn
        # it into a step that swaps two vectors of equal length forever
        if abs(x) <= 0.5 + 1e-9:
            return u, w
        k = round(x)
        w = tuple(wi - k * ui for wi, ui in zip(w, u))
        fw = embed(w)


def _mirror_shift(L: Pseudolattice, l0: QuadElem):
    """(d1, d2) with -2 l0 = d1 l1 + d2 l2 when both are integers, else None."""
    d = L.coords(-2 * l0)
    return None if any(c.denominator != 1 for c in d) else tuple(map(int, d))


def coset_slice_rows(L: Pseudolattice, l0: QuadElem, W: QuadElem, max_norm):
    """Exactly one representative of each <u>-orbit of (l0 + L) \\ {0} with
    |N(xi)| <= max_norm, where W = u/u' = u^2 (totally positive, W > 1) for
    the totally positive norm-one unit u generating the orbit group, as
    integer rows.

    The fundamental slice is tau(xi)^2 := (xi/xi')^2 in (1/W, W]:
    xi^2 <= W xi'^2 (upper, closed) and W xi^2 > xi'^2 (lower, open), so
    boundary points are never double counted.  With a common denominator
    den, xi = (x + y sqrt(D))/den where x = x0 + a x1 + b x2 (y likewise),
    and W = (Wx + Wy sqrt(D))/wd; the norm is (x^2 - D y^2)/den^2.

    The ratio |xi/xi'| is cut at rationals into pieces of ratio at most
    about e^2 (_sub_slices), and each sign quadrant of a piece, {r1 <
    |xi/xi'| <= r2, |N| <= X}, lies in the triangle with vertices 0,
    (sqrt(X r1), sqrt(X/r1)) and (sqrt(X r2), sqrt(X/r2)) in the plane of
    (xi, xi').  The plane is flowed so that the piece is central, and the
    lattice basis is Lagrange-Gauss reduced there.  Each row of the
    triangle along the shorter reduced vector is solved on integers: the two
    rays by the floor of a surd root, the norm by math.isqrt on the integer
    norm form.  The outer rays lie just outside the slice, and the exact
    slice tests above trim each outer row's ends one point at a time.
    Float64 only bounds the rows to walk, with a margin.  A coset with
    2 l0 in L is its own negative, -(l0 + a l1 + b l2) = l0 + (d1 - a) l1 +
    (d2 - b) l2 for -2 l0 = d1 l1 + d2 l2: only its quadrants with xi > 0
    are walked, and each of their rows is mirrored.

    Returns (den, rows), rows a list of (n, a, b, x, y) for
    xi = l0 + a*l1 + b*l2 = (x + y sqrt(D))/den with |N(xi)| = n/den^2,
    sorted by (n, a, b) for determinism.  Raises BoundExceeded before any
    row is walked when the triangles hold more than _MAX_BOX_POINTS lattice
    points."""
    if not (W.is_totally_positive() and W > QuadElem(W.D, 1)):
        raise ValueError("W must be totally positive and > 1")
    D = L.field.D
    rd = math.sqrt(D)
    gens = (l0, L.l1, L.l2)
    den = math.lcm(*(c.denominator for g in gens for c in (g.x, g.y)))
    x0, x1, x2 = (int(g.x * den) for g in gens)
    y0, y1, y2 = (int(g.y * den) for g in gens)
    wd = math.lcm(W.x.denominator, W.y.denominator)
    Wx, Wy = int(W.x * wd), int(W.y * wd)
    mirror = _mirror_shift(L, l0)
    max_norm_fr = Fraction(max_norm)
    # |x^2 - D y^2| <= max_norm * den^2, cleared of the max_norm denominator
    norm_num = max_norm_fr.numerator * den * den
    norm_den = max_norm_fr.denominator
    M = float(max_norm_fr) * den * den  # the norm bound on x + y sqrt(D)

    # vectors are (x, y, a, b): x + y sqrt(D) = den (a l1 + b l2)
    basis = (x1, y1, 1, 0), (x2, y2, 0, 1)
    cuts = _sub_slices(W)
    plans, points = [], 0.0
    for r1, r2 in zip(cuts, cuts[1:]):
        # the flow (xi, xi') -> (xi / g, xi' g) takes the piece's mean ratio
        # g^2 = sqrt(r1 r2) to 1 (by fourth roots, as r1 r2 may underflow)
        g = math.sqrt(math.sqrt(float(r1))) * math.sqrt(math.sqrt(float(r2)))

        def flowed(v, g=g):
            e, ec = _embed_pair(v[0], v[1], D, rd)
            return complex(e / g, ec * g)

        basis = short, long = _gauss_reduce(*basis, flowed)
        f2, f1 = flowed(short), flowed(long)
        cross = f1.real * f2.imag - f1.imag * f2.real
        # the coset point nearest 0: l0's coordinates in (long, short) are
        # rational and the flow does not move them, so they are taken exactly
        det = long[0] * short[1] - long[1] * short[0]
        ma = round(Fraction(y0 * short[0] - x0 * short[1], det))
        mb = round(Fraction(x0 * long[1] - y0 * long[0], det))
        p0 = (x0 + ma * long[0] + mb * short[0], y0 + ma * long[1] + mb * short[1],
              ma * long[2] + mb * short[2], ma * long[3] + mb * short[3])
        fp0 = flowed(p0)
        area = M * (math.sqrt(float(r2 / r1)) - math.sqrt(float(r1 / r2))) / 2
        quadrants = []
        for s1 in (1, -1):
            for s2 in (1, -1):
                ends = [complex(s1 * math.sqrt(M * float(r)) / g, s2 * math.sqrt(M / float(r)) * g)
                        for r in (r1, r2)]
                coords = [((z - fp0).real * f2.imag - (z - fp0).imag * f2.real) / cross
                          for z in [0j] + ends]
                lo, hi = min(coords), max(coords)
                margin = 1e-9 * (abs(lo) + abs(hi)) + 1e-6
                lo, hi = math.ceil(lo - margin), math.floor(hi + margin)
                # counted on Python ints: len() of a range fails past 2^63
                points += area / abs(cross) + max(0, hi - lo + 1)
                quadrants.append((s1, s2, range(lo, hi + 1)))
        plans.append((r1, r2, short, long, p0, quadrants))
    if points > _MAX_BOX_POINTS:
        raise BoundExceeded("the slice box holds %.2g lattice points, more than %.0e"
                            % (points, _MAX_BOX_POINTS))

    def upper(x, y):  # closed: W xi'^2 - xi^2 >= 0, den^2 xi^2 = P + Q sqrt(D)
        P, Q = x * x + D * y * y, 2 * x * y
        return _sign_surd((Wx - wd) * P - D * Wy * Q, Wy * P - (Wx + wd) * Q, D) >= 0

    def lower(x, y):  # open: W xi^2 - xi'^2 > 0
        P, Q = x * x + D * y * y, 2 * x * y
        return _sign_surd((Wx - wd) * P + D * Wy * Q, Wy * P + (Wx + wd) * Q, D) > 0

    kept = []
    examined = 0
    last = len(plans) - 1
    for k, (r1, r2, short, long, p0, quadrants) in enumerate(plans):
        xq, yq, qa, qb = short
        trims = [t for t, outer in ((lower, k == 0), (upper, k == last)) if outer]
        for s1, s2, arange in quadrants:
            if mirror and s1 < 0:
                continue
            sigma = s1 * s2
            # s1 xi > r1 s2 xi' and s1 xi <= r2 s2 xi': with r = p/q, the sign
            # of q s1 xi - p s2 xi' is that of (q s1 - p s2) x + (q s1 + p s2) y sqrt(D)
            (c1, d1), (c2, d2) = ((r.denominator * s1 - r.numerator * s2,
                                   r.denominator * s1 + r.numerator * s2) for r in (r1, r2))
            A = sigma * norm_den * (xq * xq - D * yq * yq)
            for a in arange:
                xp, yp = p0[0] + a * long[0], p0[1] + a * long[1]
                examined += 1
                lo, hi = _positive_run(c1 * xp, d1 * yp, c1 * xq, d1 * yq, D)
                lo2, hi2 = _positive_run(c2 * xp, d2 * yp, c2 * xq, d2 * yq, D)
                # the second ray's complement: its points with s1 xi <= r2 s2 xi'
                if lo2 is None and hi2 is None:
                    continue
                if lo2 is None:
                    lo = hi2 + 1 if lo is None else max(lo, hi2 + 1)
                elif hi2 is None:
                    hi = lo2 - 1 if hi is None else min(hi, lo2 - 1)
                # sigma N(xi) den^2 norm_den <= norm_num, a quadratic in b
                B = 2 * sigma * norm_den * (xp * xq - D * yp * yq)
                C = sigma * norm_den * (xp * xp - D * yp * yp) - norm_num
                if A > 0:
                    nlo, nhi = _quadratic_run(A, B, C)
                    runs = [(nlo if lo is None else max(lo, nlo),
                             nhi if hi is None else min(hi, nhi))]
                else:
                    # a line on which |N| grows without bound leaves the cone
                    # both ways; the norm drops out where A b^2 + B b + C >= 1
                    elo, ehi = _quadratic_run(-A, -B, 1 - C)
                    runs = [(lo, min(hi, elo - 1)), (max(lo, ehi + 1), hi)] \
                        if elo <= ehi else [(lo, hi)]
                ra, rb = p0[2] + a * long[2], p0[3] + a * long[3]
                for lo, hi in runs:
                    for trim in trims:
                        while lo <= hi and not trim(xp + lo * xq, yp + lo * yq):
                            lo += 1
                            examined += 1
                        while lo <= hi and not trim(xp + hi * xq, yp + hi * yq):
                            hi -= 1
                            examined += 1
                    for b in range(lo, hi + 1):
                        x, y = xp + b * xq, yp + b * yq
                        kept.append((sigma * (x * x - D * y * y), ra + b * qa, rb + b * qb, x, y))
                    examined += max(0, hi - lo + 1)
    _EXAMINED[0] += examined
    if mirror:
        d1, d2 = mirror
        kept += [(n, d1 - a, d2 - b, -x, -y) for n, a, b, x, y in kept]
    # |N| = n / den^2 with one den for all, so integer n sorts as |N| does
    kept.sort()
    return den, kept


def fold_by_norm(D: int, den: int, rows, m: QuadElem, parts):
    """Fold the rows of coset_slice_rows (common denominator den) by norm
    under the trace character of m = (p + q sqrt(D))/md: tr(xi m') =
    2(x p - D y q)/(den md) for xi = (x + y sqrt(D))/den.  parts: the sign
    sums to fold, (0,), (1,) or (0, 1), 0 for sum sgn(xi') and 1 for sgn(xi).

    Returns (modulus, folds) with modulus = den md and folds a list of
    (n, {r: [the sums of parts]}) in ascending n, over the rows of
    |N(xi)| = n/den^2 with tr(xi m') = r/modulus mod 1."""
    md = math.lcm(m.x.denominator, m.y.denominator)
    p, q = int(m.x * md), int(m.y * md)
    modulus = den * md
    f, both = (1 if parts[0] else -1), len(parts) == 2  # sgn(xi') = sgn(x - y sqrt(D))
    folds = []
    for n, group in groupby(rows, key=itemgetter(0)):
        sums: dict[int, list] = {}
        for _, _, _, x, y in group:
            s = sums.setdefault(2 * (x * p - D * y * q) % modulus, [0] * len(parts))
            s[0] += _sign_surd(x, f * y, D)
            if both:
                s[1] += _sign_surd(x, y, D)
        folds.append((n, sums))
    return modulus, folds


def _characters(modulus: int):
    """r -> e^{-2 pi i r / modulus} at the caller's precision, computed once
    per exponent for the life of the returned function."""
    return functools.cache(lambda r: mp.expjpi(2 * (mp.mpf(-r % modulus) / modulus)))


def coset_slice_reps(L: Pseudolattice, l0: QuadElem, W: QuadElem, max_norm):
    """The representatives of coset_slice_rows as a list of
    (xi: QuadElem, a: int, b: int, absN: Fraction), in the same order.
    No package code calls it; the tests use it as a reference."""
    den, rows = coset_slice_rows(L, l0, W, max_norm)
    D, dd = L.field.D, den * den
    # converted in place, so the integer rows and the output never coexist
    for i, (n, a, b, x, y) in enumerate(rows):
        rows[i] = (QuadElem(D, Fraction(x, den), Fraction(y, den)), a, b, Fraction(n, dd))
    return rows
