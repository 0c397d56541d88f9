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
import numpy as np

from .numerics import DEFAULT_CTX, BoundExceeded, PrecisionCtx
from .quadfield import (
    FieldCtx,
    QuadElem,
    QuadIdeal,
    fundamental_unit,
    _cf_normalize,
    _cf_walk,
    _convergent_matrix,
    _float_embed,
    _float_embed_conj,
    _omega_mul,
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

    def inverse_unimodular(self) -> "IntMat2":
        det = self.det()
        if det not in (1, -1):
            raise ValueError("only |det| = 1 matrices invert over Z")
        return IntMat2(self.d * det, -self.b * det, -self.c * det, self.a * det)

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
        if det == 0:
            # generators proportional over Q in one coordinate; use full solve
            raise ArithmeticError("degenerate coordinate solve")
        p = (e.x * self.l2.y - e.y * self.l2.x) / det
        q = (self.l1.x * e.y - self.l1.y * e.x) / det
        return p, q

    def contains(self, e: QuadElem) -> bool:
        try:
            p, q = self.coords(e)
        except ArithmeticError:
            return False
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

    def scaled(self, lam: QuadElem) -> "Pseudolattice":
        return Pseudolattice(self.field, self.l1 * lam, self.l2 * lam, self.orientation)

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
    """End(L) = Z + f*O_K described by its conductor and Z-basis."""

    conductor: int
    basis: tuple  # (1, f*omega) as QuadElems


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
    return OrderData(conductor=f, basis=(F.elem(1), fomega))


def dual(L: Pseudolattice) -> Pseudolattice:
    """Trace-dual L^? = {m : tr(l' m) in Z for all l in L}; generators solve
    tr(l_i' m_j) = delta_ij.  tr(l'm) = 2(ax - D b y) for l = a+b sqrt(D),
    m = x+y sqrt(D)."""
    D = L.field.D
    a1, b1 = L.l1.x, L.l1.y
    a2, b2 = L.l2.x, L.l2.y
    # solve [[2a1, -2Db1], [2a2, -2Db2]] (x, y)^T = e_j by Cramer
    det = 4 * D * (b1 * a2 - a1 * b2)
    if det == 0:
        raise ArithmeticError("degenerate trace pairing")
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
    torsion_order: int  # the +-1 factor


def automorphism_group(L: Pseudolattice) -> AutomorphismGroup:
    """Units of End L: infinite part generated by the fundamental unit of the
    conductor-f order, torsion {+-1}.  That unit is the least power eps0^k in
    Z + f*omega, found by walking eps0^k mod (f) (residue v-coordinate 0);
    raises BoundExceeded when k would exceed 499."""
    F = L.field
    f = endomorphism_ring(L).conductor
    eps0 = fundamental_unit(F.D)
    f_ideal = QuadIdeal(F, f, 0, f)
    step = tuple(map(int, F.coords(eps0)))
    r = (1, 0)
    for k in range(1, 500):
        r = f_ideal._residue(_omega_mul(F, r, step))
        if r[1] == 0:
            gen = eps0 ** k
            break
    else:
        raise BoundExceeded("no unit of the conductor-%d order up to eps0^499" % f)
    assert L.contains(gen * L.l1) and L.contains(gen * L.l2)
    assert L.contains(L.l1 / gen) and L.contains(L.l2 / gen)
    return AutomorphismGroup(generator=gen, torsion_order=2)


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
            # theta1 = M1 . x, theta2 = M2 . x  =>  g = M2 M1^{-1}
            M1 = IntMat2(*_convergent_matrix(q1[:k]))
            g = IntMat2(*_convergent_matrix(ext_q2[:j])) * M1.inverse_unimodular()
            assert g.mobius(th1) == th2
            if oriented:
                assert g.det() == 1
            return True, g
    return False, None


# ---------------------------------------------------------------------------
# exact unit-orbit slice enumeration on shifted pseudolattices
# ---------------------------------------------------------------------------


def _sign_surd(r: int, t: int, D: int) -> int:
    """Exact sign of r + t*sqrt(D) for integers r, t and non-square D."""
    if r >= 0 and t >= 0:
        return 0 if r == 0 and t == 0 else 1
    if r <= 0 and t <= 0:
        return -1
    # mixed signs: the larger of r^2 and D t^2 decides (never equal)
    return (1 if r > 0 else -1) if r * r > D * t * t else (1 if t > 0 else -1)


# Lattice points past which coset_slice_rows refuses to scan its box.  The
# scan takes about 2 s per 1e8 points (a box of 5.0e8 took 11.4 s), and the
# largest box that the test suite scans holds 6.2e6.
_MAX_BOX_POINTS = 10**8


def coset_slice_rows(L: Pseudolattice, l0: QuadElem, W: QuadElem, max_norm):
    """Exactly one representative of each <u>-orbit of (l0 + L) \\ {0} with
    |N(xi)| <= max_norm, where W = u/u' = u^2 (totally positive, W > 1) for
    the totally positive norm-one unit u generating the orbit group, as
    integer rows.

    The fundamental slice is tau(xi)^2 := (xi/xi')^2 in (1/W, W]:
    xi^2 <= W xi'^2 (upper, closed) and W xi^2 > xi'^2 (lower, open), so
    boundary points are never double counted.  Candidates are pre-filtered
    in float64 with a wide margin and every survivor is verified exactly in
    integer arithmetic: with a common denominator den, xi = (x + y sqrt(D))/den
    where x = x0 + a x1 + b x2 (y likewise), and W = (Wx + Wy sqrt(D))/wd.
    The norm is (x^2 - D y^2)/den^2, and each slice inequality is the exact
    sign of an integer combination r + t sqrt(D).

    Returns (den, rows), rows a list of (n, a, b, x, y) for
    xi = l0 + a*l1 + b*l2 = (x + y sqrt(D))/den with |N(xi)| = n/den^2,
    sorted by (n, a, b) for determinism.  Raises BoundExceeded before any
    scan when the box holds more than _MAX_BOX_POINTS lattice points."""
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
    if points > _MAX_BOX_POINTS:
        raise BoundExceeded("the slice box holds %.2g lattice points, more than %.0e"
                            % (points, _MAX_BOX_POINTS))

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


def fold_by_norm(D: int, den: int, rows, m: QuadElem):
    """Fold the rows of coset_slice_rows (common denominator den) by norm
    under the trace character of m = (p + q sqrt(D))/md: tr(xi m') =
    2(x p - D y q)/(den md) for xi = (x + y sqrt(D))/den.

    Returns (modulus, folds) with modulus = den md and folds a list of
    (n, {r: [sum sgn(xi'), sum sgn(xi)]}) in ascending n, over the rows of
    |N(xi)| = n/den^2 with tr(xi m') = r/modulus mod 1."""
    md = math.lcm(m.x.denominator, m.y.denominator)
    p, q = int(m.x * md), int(m.y * md)
    modulus = den * md
    folds = []
    for n, group in groupby(rows, key=itemgetter(0)):
        sums: dict[int, list] = {}
        for _, _, _, x, y in group:
            s = sums.setdefault(2 * (x * p - D * y * q) % modulus, [0, 0])
            s[0] += _sign_surd(x, -y, D)
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
