"""Exact arithmetic in a real quadratic field K = Q(sqrt(D)): elements with
rational coordinates, conjugation, norms and traces, continued-fraction
fundamental units, integral ideals in Hermite normal form, and congruence
conditions on units.

The ideal layer works on integer omega-coordinates: (u, v) means
u + v*omega in O_K = Z[omega], an ideal is its HNF triple (a, b, c) on that
basis, products use omega^2 = t*omega - n (`_omega_mul`) and congruences
compare canonical residues (`QuadIdeal._residue`).  Continued fractions
walk integer states (P + m sqrt(D))/Q and match complete quotients by
canonical integer keys (`_cf_walk`, `_cf_key`).  QuadElems of Fractions
appear only at the public edges: generators passed in, elements tested for
membership, and generators and units handed back."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import mpmath as mp

from .numerics import DEFAULT_CTX, BoundExceeded, PrecisionCtx


def _sign_surd(r: int, t: int, D: int) -> int:
    """Exact sign of r + t*sqrt(D) for integers r, t; ArithmeticError where
    r^2 = D t^2 with mixed signs, which a non-square D never gives."""
    if r >= 0 and t >= 0:
        return 0 if r == 0 and t == 0 else 1
    if r <= 0 and t <= 0:
        return -1
    # mixed signs: the larger of r^2 and D t^2 decides
    gap = r * r - D * t * t
    if gap == 0:
        raise ArithmeticError("sqrt(D) cannot be rational")
    return (1 if r > 0 else -1) if gap > 0 else (1 if t > 0 else -1)


def _squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class QuadElem:
    """x + y*sqrt(D) with exact rational x, y."""

    __slots__ = ("D", "x", "y")

    def __init__(self, D: int, x=0, y=0):
        self.D = D
        self.x = Fraction(x)
        self.y = Fraction(y)

    # -- construction helpers -------------------------------------------
    @staticmethod
    def _coerce(D, other):
        if isinstance(other, QuadElem):
            if other.D != D:
                raise ValueError("mixed-field arithmetic rejected")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(D, other)
        return NotImplemented

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        o = self._coerce(self.D, other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.D, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(self.D, -self.x, -self.y)

    def __sub__(self, other):
        o = self._coerce(self.D, other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.D, self.x - o.x, self.y - o.y)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(self.D, other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(
            self.D,
            self.x * o.x + self.D * self.y * o.y,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero element")
        return QuadElem(self.D, self.x / n, -self.y / n)

    def __truediv__(self, other):
        o = self._coerce(self.D, other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadElem(self.D, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- field structure ---------------------------------------------------
    def conjugate(self) -> "QuadElem":
        return QuadElem(self.D, self.x, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.D * self.y * self.y

    def trace(self) -> Fraction:
        return 2 * self.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def sign(self) -> int:
        """Exact sign of x + y*sqrt(D): _sign_surd on the common denominator
        of x and y."""
        x, y = self.x, self.y
        return _sign_surd(x.numerator * y.denominator, y.numerator * x.denominator, self.D)

    def is_totally_positive(self) -> bool:
        return self.sign() > 0 and self.conjugate().sign() > 0

    def compare(self, other) -> int:
        o = self._coerce(self.D, other)
        return (self - o).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self.D == other.D and self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.y == 0:
            return hash(self.x)
        return hash((self.D, self.x, self.y))

    def floor(self) -> int:
        """Exact floor via a float guess corrected with exact comparisons."""
        approx = float(self.x) + float(self.y) * math.sqrt(self.D)
        k = math.floor(approx)
        while self.compare(k) < 0:
            k -= 1
        while self.compare(k + 1) >= 0:
            k += 1
        return k

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __repr__(self):
        return f"QuadElem({self.D}, {self.x}, {self.y})"

    # -- embeddings ---------------------------------------------------------
    def embed(self, which: str = "id", ctx: PrecisionCtx = DEFAULT_CTX):
        """Real embedding at working precision ('id' or 'conj')."""
        if which not in ("id", "conj"):
            raise ValueError("which must be 'id' or 'conj'")
        with ctx.workprec():
            root = mp.sqrt(mp.mpf(self.D))
            y = self.y if which == "id" else -self.y
            return +(
                mp.mpf(self.x.numerator) / self.x.denominator
                + (mp.mpf(y.numerator) / y.denominator) * root
            )


@dataclass(frozen=True)
class FieldCtx:
    """Real quadratic field Q(sqrt(D)) with its ring of integers Z[omega]."""

    D: int

    def __post_init__(self):
        if self.D <= 1 or not _squarefree(self.D):
            raise ValueError("D must be a squarefree integer > 1")

    @property
    def omega(self) -> QuadElem:
        if self.D % 4 == 1:
            return QuadElem(self.D, Fraction(1, 2), Fraction(1, 2))
        return QuadElem(self.D, 0, 1)

    @property
    def omega_trace(self) -> int:
        return 1 if self.D % 4 == 1 else 0

    @property
    def omega_norm(self) -> int:
        return (1 - self.D) // 4 if self.D % 4 == 1 else -self.D

    def elem(self, x=0, y=0) -> QuadElem:
        return QuadElem(self.D, x, y)

    def from_coords(self, u, v) -> QuadElem:
        """u + v*omega as a QuadElem."""
        return self.elem(u) + Fraction(v) * self.omega

    def coords(self, e: QuadElem) -> tuple[Fraction, Fraction]:
        """(u, v) with e = u + v*omega; exact."""
        if e.D != self.D:
            raise ValueError("element from a different field")
        w = self.omega
        v = e.y / w.y
        u = e.x - v * w.x
        return u, v

    def is_integral(self, e: QuadElem) -> bool:
        u, v = self.coords(e)
        return u.denominator == 1 and v.denominator == 1


# ---------------------------------------------------------------------------
# continued fractions of quadratic irrationals (exact integer state machine)
# ---------------------------------------------------------------------------


def _cf_start(D: int, P: int, m: int, Q: int) -> tuple[int, int, int]:
    """The state (P, m, Q) of (P + m*sqrt(D))/Q, m != 0, made ready for the
    integer walk: m > 0, and Q | D*m^2 - P^2 (rescaled by |Q| if needed)."""
    if m < 0:
        P, m, Q = -P, -m, -Q
    if (D * m * m - P * P) % Q:
        s = abs(Q)
        P, m, Q = P * s, m * s, Q * s
    return P, m, Q


def _cf_normalize(theta: QuadElem) -> tuple[int, int, int]:
    """The integer state of theta = (P + m sqrt(D)) / Q (see _cf_start)."""
    if theta.y == 0:
        raise ValueError("rational input is degenerate for the CF machine")
    den = math.lcm(theta.x.denominator, theta.y.denominator)
    return _cf_start(theta.D, int(theta.x * den), int(theta.y * den), den)


def _cf_key(P: int, m: int, Q: int) -> tuple[int, int, int]:
    """Canonical triple of the value (P + m sqrt(D))/Q: (P, m, Q)/g with
    g = gcd(P, m, Q) signed so that Q > 0.  Two states have the same value
    iff their triples are proportional, so iff their keys are equal."""
    g = math.gcd(P, m, Q)
    if Q < 0:
        g = -g
    return P // g, m // g, Q // g


def _key_value(D: int, key: tuple[int, int, int]) -> QuadElem:
    P, m, Q = key
    return QuadElem(D, Fraction(P, Q), Fraction(m, Q))


# Steps a continued-fraction walk may take before it gives up.
_CF_MAX_STEPS = 10000


def _cf_walk(D: int, state: tuple[int, int, int], stop=()):
    """Continued fraction of (P + m sqrt(D))/Q, state = (P, m, Q) from
    _cf_start, in integers: m stays fixed, and a step with partial quotient
    a maps (P, Q) to (P1, (D m^2 - P1^2)/Q), P1 = aQ - P.

    Returns (quotients, keys, first): keys[k] is the _cf_key of the k-th
    complete quotient (keys[0] that of the input) and quotients[k] its
    floor.  The walk ends at the first repeated key, and first is the index
    of its first occurrence (the cycle is keys[first:]); or at the first key
    in stop, which is then keys[-1], without its quotient, and first is None."""
    P, m, Q = state
    Delta = D * m * m
    s = math.isqrt(Delta)
    quotients: list[int] = []
    keys: list[tuple[int, int, int]] = []
    seen: dict = {}
    for k in range(_CF_MAX_STEPS):
        key = _cf_key(P, m, Q)
        if key in stop:
            keys.append(key)
            return quotients, keys, None
        if key in seen:
            return quotients, keys, seen[key]
        seen[key] = k
        keys.append(key)
        # floor((P + m sqrt(D)) / Q); the numerator lies in (P+s, P+s+1)
        # with s = floor(m sqrt(D)), and is irrational (never an endpoint)
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        quotients.append(a)
        P = a * Q - P
        Q = (Delta - P * P) // Q
        if Q == 0:
            raise ArithmeticError("CF state degenerated (rational value?)")
    raise ArithmeticError("continued fraction did not cycle within max_steps")


def cf_expand(theta: QuadElem):
    """Exact continued fraction of a quadratic irrational.

    Returns (partial_quotients, values, (first_index, cycle_length)) where
    values[k] is the k-th complete quotient as a QuadElem (values[0] = theta);
    stops at the first exact repetition of a complete quotient."""
    quotients, keys, start = _cf_walk(theta.D, _cf_normalize(theta))
    values = [_key_value(theta.D, key) for key in keys]
    return quotients, values, (start, len(keys) - start)


def _theta_state(F: FieldCtx, a: int, b: int, c: int) -> tuple[int, int, int]:
    """The CF state of (b + c*omega)/a, with omega = (1 + sqrt(D))/2 when
    D == 1 mod 4 and sqrt(D) otherwise."""
    if F.omega_trace:
        return _cf_start(F.D, 2 * b + c, c, 2 * a)
    return _cf_start(F.D, b, c, a)


def _convergent_matrix(quotients) -> tuple[int, int, int, int]:
    """(p, p_, q, q_) = (a0 1; 1 0)...(ak 1; 1 0) for quotients a0..ak: the
    number x after them maps back to theta = (p x + p_) / (q x + q_)."""
    p, p_, q, q_ = 1, 0, 0, 1
    for a in quotients:
        p, p_, q, q_ = a * p + p_, p, a * q + q_, q
    return p, p_, q, q_


@lru_cache(maxsize=None)
def _omega_cf(D: int):
    """The continued fraction of omega, read once per field: its partial
    quotients, the index of each complete quotient by its _cf_key, and the
    fundamental unit eps0 > 1 of O_K.  The matrix of one period of quotients
    fixes the first repeated complete quotient, and its bottom row yields
    eps0."""
    F = FieldCtx(D)
    quotients, keys, start = _cf_walk(D, _theta_state(F, 1, 0, 1))
    _, _, c, d = _convergent_matrix(quotients[start:])
    eps = QuadElem(D, c) * _key_value(D, keys[start]) + d
    # normalize to the unit > 1
    if eps.norm() not in (1, -1):
        raise ArithmeticError("CF automorph did not give a unit")
    candidates = [eps, -eps, eps.inverse(), -eps.inverse()]
    eps = next(e for e in candidates if e.compare(1) > 0)
    if not F.is_integral(eps):
        raise ArithmeticError("unit not integral")
    index = MappingProxyType({key: j for j, key in enumerate(keys)})
    return tuple(quotients), index, eps


def fundamental_unit(D: int) -> QuadElem:
    """Fundamental unit eps0 > 1 of O_K, |N(eps0)| = 1."""
    return _omega_cf(D)[2]


# ---------------------------------------------------------------------------
# integral ideals in HNF
# ---------------------------------------------------------------------------


def _hnf_2col(rows: list[tuple[int, int]]):
    """HNF (a, b, c) of the Z-module spanned by integer coordinate rows
    (u, v) meaning u + v*omega: module = aZ + (b + c*omega)Z."""
    rows = [r for r in rows if r != (0, 0)]
    if not rows:
        raise ValueError("zero module")
    rows = [list(r) for r in rows]
    # eliminate the omega column down to a single row via extended gcd
    pivot = None
    for r in rows:
        if r[1] != 0:
            if pivot is None:
                pivot = r
            else:
                g, s, t = _xgcd(pivot[1], r[1])
                new_pivot = [s * pivot[0] + t * r[0], g]
                k = r[1] // g
                j = pivot[1] // g
                r[0] = r[0] * j - pivot[0] * k
                r[1] = 0
                pivot[0], pivot[1] = new_pivot
    a = 0
    for r in rows:
        if r[1] == 0:
            a = math.gcd(a, abs(r[0]))
    if pivot is None or a == 0:
        raise ValueError("module has rank < 2 (not an ideal-like module)")
    b, c = pivot
    if c < 0:
        b, c = -b, -c
    b %= a
    return a, b, c


def _omega_mul(F: FieldCtx, p: tuple[int, int], q: tuple[int, int]):
    """(u1 + v1*omega)(u2 + v2*omega) in omega-coordinates, by
    omega^2 = t*omega - n (t, n the trace and norm of omega)."""
    (u1, v1), (u2, v2) = p, q
    vv = v1 * v2
    return (u1 * u2 - F.omega_norm * vv, u1 * v2 + v1 * u2 + F.omega_trace * vv)


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class QuadIdeal:
    """Integral ideal of O_K stored as the HNF triple (a, b, c):
    the Z-module aZ + (b + c*omega)Z, with 0 <= b < a, c | a, c | b."""

    __slots__ = ("field", "a", "b", "c")

    def __init__(self, field: FieldCtx, a: int, b: int, c: int):
        self.field = field
        self.a, self.b, self.c = a, b, c
        if not self._closed_under_omega():
            raise ValueError("module is not an O_K ideal (not omega-stable)")

    # -- construction -----------------------------------------------------
    @classmethod
    def from_generators(cls, field: FieldCtx, gens) -> "QuadIdeal":
        """Ideal generated (over O_K) by the given integral elements."""
        rows = []
        for g in gens:
            u, v = field.coords(g if isinstance(g, QuadElem) else field.elem(g))
            if u.denominator != 1 or v.denominator != 1:
                raise ValueError("generators must be integral")
            p = (int(u), int(v))
            rows += [p, _omega_mul(field, p, (0, 1))]
        return cls(field, *_hnf_2col(rows))

    @classmethod
    def principal(cls, field: FieldCtx, g) -> "QuadIdeal":
        return cls.from_generators(field, [g])

    @classmethod
    def unit_ideal(cls, field: FieldCtx) -> "QuadIdeal":
        return cls.from_generators(field, [1])

    # -- structure ----------------------------------------------------------
    def _closed_under_omega(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if a <= 0 or c <= 0 or not (0 <= b < a) or a % c or b % c:
            return False
        # omega*a lies in the module as c | b; omega*(b + c*omega) =
        # -c*n + (b + c*t)*omega, with t and n the trace and norm of omega
        F = self.field
        return (c * F.omega_norm + (b // c + F.omega_trace) * b) % a == 0

    def module_generators(self) -> list[QuadElem]:
        F = self.field
        return [F.elem(self.a), F.from_coords(self.b, self.c)]

    def _residue(self, p: tuple[int, int]) -> tuple[int, int]:
        """Canonical representative of u + v*omega modulo the ideal: equal
        residues mean congruent elements, and (0, 0) means membership."""
        u, v = p
        k = v // self.c
        return ((u - k * self.b) % self.a, v - k * self.c)

    def contains(self, e: QuadElem) -> bool:
        """Exact membership of a field element in the ideal's Z-module."""
        u, v = self.field.coords(e if isinstance(e, QuadElem) else self.field.elem(e))
        if u.denominator != 1 or v.denominator != 1:
            return False
        return self._residue((int(u), int(v))) == (0, 0)

    def norm(self) -> int:
        return self.a * self.c

    def hnf(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __eq__(self, other):
        if not isinstance(other, QuadIdeal):
            return NotImplemented
        return self.field.D == other.field.D and self.hnf() == other.hnf()

    def __hash__(self):
        return hash((self.field.D, self.hnf()))

    def __repr__(self):
        return f"QuadIdeal(D={self.field.D}, a={self.a}, b={self.b}, c={self.c})"

    def is_unit_ideal(self) -> bool:
        return self.hnf() == (1, 0, 1)

    # -- arithmetic -----------------------------------------------------------
    def _same_field(self, other: "QuadIdeal"):
        if self.field.D != other.field.D:
            raise ValueError("mixed-field ideals rejected")

    def __mul__(self, other):
        """Product with an ideal, an int or an integral QuadElem."""
        if not isinstance(other, QuadIdeal):
            other = QuadIdeal.principal(self.field, other)
        self._same_field(other)
        rows = [_omega_mul(self.field, p, q)
                for p in ((self.a, 0), (self.b, self.c))
                for q in ((other.a, 0), (other.b, other.c))]
        return QuadIdeal(self.field, *_hnf_2col(rows))

    __rmul__ = __mul__

    def gcd(self, other: "QuadIdeal") -> "QuadIdeal":
        """Ideal sum (the gcd in the lattice of ideals)."""
        self._same_field(other)
        rows = [(self.a, 0), (self.b, self.c), (other.a, 0), (other.b, other.c)]
        return QuadIdeal(self.field, *_hnf_2col(rows))

    def coprime(self, other: "QuadIdeal") -> bool:
        return self.gcd(other).is_unit_ideal()

    def conjugate(self) -> "QuadIdeal":
        # conj(b + c*omega) = (b + c*t) - c*omega; negate it to keep c > 0
        a, b, c = self.hnf()
        return QuadIdeal(self.field, a, (-b - c * self.field.omega_trace) % a, c)

    def divide_by_integer(self, n: int) -> "QuadIdeal":
        """Exact quotient (1/n) * self; requires all HNF data divisible."""
        m = abs(n)
        if self.a % m or self.b % m or self.c % m:
            raise ValueError("ideal not divisible by %d" % n)
        return QuadIdeal(self.field, self.a // m, self.b // m, self.c // m)

    def divide(self, other: "QuadIdeal") -> "QuadIdeal":
        """Exact ideal quotient self / other, assuming other | self."""
        prod = self * other.conjugate()
        return prod.divide_by_integer(other.norm())

    # -- principality -----------------------------------------------------------
    def generator_coords(self):
        """omega-coordinates (u, v) of an alpha = u + v*omega with
        (alpha) = self, or None when self is not principal.

        With self = a(Z + Z theta), theta = (b + c omega)/a, the ideal is
        principal iff theta and omega are GL(2, Z)-equivalent, that is iff
        their continued fractions share a complete quotient x.  Then
        theta = M.x and omega = N.x for convergent matrices M and N, and
        Z + Z theta = (N21 x + N22)/(M21 x + M22) * (Z + Z omega).  With
        x = (p + m sqrt(D))/q, alpha = a (A + B sqrt(D))/(C + E sqrt(D)) for
        A = N21 p + N22 q, B = N21 m, C = M21 p + M22 q, E = M21 m; one
        product with the conjugate C - E sqrt(D) and an exact division by
        C^2 - D E^2 give its coordinates."""
        F = self.field
        D, t = F.D, F.omega_trace
        omega_quotients, index = _omega_cf(D)[:2]
        quotients, keys, cycled = _cf_walk(
            D, _theta_state(F, self.a, self.b, self.c), stop=index)
        if cycled is not None:
            return None
        x = keys[-1]
        p, m, q = x
        _, _, m21, m22 = _convergent_matrix(quotients)
        _, _, n21, n22 = _convergent_matrix(omega_quotients[:index[x]])
        A, B = n21 * p + n22 * q, n21 * m
        C, E = m21 * p + m22 * q, m21 * m
        X, Y = A * C - D * B * E, B * C - A * E
        N = C * C - D * E * E
        # alpha = a (X + Y sqrt(D))/N; its omega-coordinates are
        # (aX/N, aY/N) when t = 0 and (a(X - Y)/N, 2aY/N) when t = 1
        u, ru = divmod(self.a * (X - t * Y), N)
        v, rv = divmod((1 + t) * self.a * Y, N)
        if ru or rv:
            raise ArithmeticError("CF generator is not integral")
        gen = (u, v)
        if _hnf_2col([gen, _omega_mul(F, gen, (0, 1))]) != self.hnf():
            raise ArithmeticError("CF generator does not generate the ideal")
        return gen


def _float_embed(e: QuadElem) -> float:
    return float(e.x) + float(e.y) * math.sqrt(e.D)


# ---------------------------------------------------------------------------
# unit congruence data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitData:
    """Units of O_K relative to a modulus f, eps0 the fundamental unit > 1.

    eps_f: generator g of {units == 1 mod f} with |g| minimal > 1 (the
        returned element may be negative; |eps_f| > 1).
    eps_f_plus: least totally positive unit > 1 that is == 1 mod f.
    order: least k >= 1 with eps0^k == +-1 mod f, so eps_f = +-eps0^order.
    step: the omega-coordinates of eps0, as integers.
    eps0_norm: N(eps0), which is the sign of eps0' as eps0 > 0.
    kappa: index [E_f : <eps_f_plus>] counting orbit splitting, in {1, 2, 4}.
    signs: the sign pairs (sgn, sgn') realized by the units == 1 mod f: the
        group generated by the pair of eps_f, and by (-1, -1) when
        -1 == 1 mod f (each pair is its own inverse).
    minus_one_in_ef: True iff -1 == 1 mod f.
    """

    eps_f: QuadElem
    eps_f_plus: QuadElem
    order: int
    step: tuple[int, int]
    eps0_norm: int
    kappa: int
    signs: frozenset
    minus_one_in_ef: bool

    @property
    def sign_condition(self) -> bool:
        """True iff every unit == 1 mod f has positive conjugate
        (equivalently: -1 is not == 1 mod f and eps_f' > 0)."""
        return all(s_conj > 0 for _, s_conj in self.signs)


# Powers of eps0 that unit_mod_f tries before it gives up.
_UNIT_MAX_POWER = 200


def unit_mod_f(F: FieldCtx, f: QuadIdeal) -> UnitData:
    """Generator data for the congruence unit group {eps == 1 mod f}.

    Raises BoundExceeded when no eps0^k with k <= 200 is == +-1 mod f."""
    eps0 = fundamental_unit(F.D)
    one, minus = f._residue((1, 0)), f._residue((-1, 0))
    minus_one = one == minus  # -1 == 1 mod f
    step = tuple(map(int, F.coords(eps0)))
    r = (1, 0)
    for k_found in range(1, _UNIT_MAX_POWER + 1):
        r = f._residue(_omega_mul(F, r, step))  # eps0^k mod f
        if r == one:
            g = eps0 ** k_found
            break
        if r == minus:
            g = -(eps0 ** k_found)
            break
    else:
        raise BoundExceeded("no unit == +-1 mod f found up to eps0^%d" % _UNIT_MAX_POWER)
    # least totally positive unit == 1 mod f (of the form +-g^j)
    if g.is_totally_positive():
        g_plus = g
        ratio = 1
    elif minus_one and (-g).is_totally_positive():
        g_plus = -g
        ratio = 1
    else:
        g_plus = g * g
        ratio = 2
    kappa = ratio * (2 if minus_one else 1)
    s, s_conj = g.sign(), g.conjugate().sign()
    signs = {(1, 1), (s, s_conj)}
    if minus_one:
        signs |= {(-1, -1), (-s, -s_conj)}
    return UnitData(
        eps_f=g,
        eps_f_plus=g_plus,
        order=k_found,
        step=step,
        eps0_norm=int(eps0.norm()),
        kappa=kappa,
        signs=frozenset(signs),
        minus_one_in_ef=minus_one,
    )
