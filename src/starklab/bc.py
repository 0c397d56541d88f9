"""Desk-scale model of the rational Hecke algebra with its canonical
time evolution: the isometries mu_n, the roots of unity e(gamma), their
defining relations checked in a truncated basis representation, and the
equilibrium (KMS) state values

    phi_{beta, r}( e(gamma) ) = zeta(beta)^{-1} sum_{k>=1} e^{2 pi i k (r gamma)} k^{-beta},

where the residue r twists the root of unity through the finite-level
Galois action gamma -> r * gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .cyclotomic import hurwitz_zeta
from .numerics import PrecisionCtx, DEFAULT_CTX, mpf_from_fraction


class TruncationOverflow(IndexError):
    """An intermediate basis index left the truncated range."""


@dataclass(frozen=True)
class BCGenerator:
    """One generator: an isometry mu_n ('mu'), its adjoint ('mu_star'),
    or a root of unity e(gamma) ('e') with gamma rational mod 1."""

    kind: str  # "mu" | "mu_star" | "e"
    n: int = 1
    gamma: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in ("mu", "mu_star", "e"):
            raise ValueError("unknown generator kind %r" % self.kind)
        if self.kind in ("mu", "mu_star") and self.n < 1:
            raise ValueError("mu index must be a positive integer")
        if self.kind == "e":
            g = self.gamma % 1
            if g != self.gamma:
                object.__setattr__(self, "gamma", g)


def mu(n: int) -> BCGenerator:
    return BCGenerator("mu", n=n)


def mu_star(n: int) -> BCGenerator:
    return BCGenerator("mu_star", n=n)


def e(gamma) -> BCGenerator:
    return BCGenerator("e", gamma=Fraction(gamma))


@dataclass(frozen=True)
class TruncatedRep:
    """Representation on the basis (eps_k)_{1<=k<=N}:

        mu_n eps_k = eps_{nk},   mu_n* eps_k = eps_{k/n} if n | k else 0,
        e(gamma) eps_k = exp(2 pi i k (r gamma)) eps_k,

    with the unit residue r acting on the numerators of the rational
    angles (finite-level Galois twist)."""

    N: int
    galois_twist: int = 1

    def twist(self, gamma: Fraction) -> Fraction:
        g = gamma % 1
        if math.gcd(self.galois_twist, g.denominator) != 1:
            raise ValueError(
                "galois twist %d is not a unit modulo %d"
                % (self.galois_twist, g.denominator)
            )
        return Fraction(
            self.galois_twist * g.numerator % g.denominator, g.denominator
        )


def apply_word(word, k: int, rep: TruncatedRep, ctx: PrecisionCtx = DEFAULT_CTX):
    """Apply a product of generators (leftmost acts last) to eps_k.

    Returns a sparse vector {index: mp.mpc amplitude}; the zero vector is
    the empty dict.  Raises TruncationOverflow if any intermediate index
    exceeds rep.N."""
    if not (1 <= k <= rep.N):
        raise TruncationOverflow("basis index %d outside [1, %d]" % (k, rep.N))
    with ctx.workprec():
        idx = k
        amp_phase = Fraction(0)  # accumulated exact phase exponent mod 1
        for gen in reversed(list(word)):
            if gen.kind == "mu":
                idx *= gen.n
                if idx > rep.N:
                    raise TruncationOverflow(
                        "index %d exceeds truncation %d" % (idx, rep.N)
                    )
            elif gen.kind == "mu_star":
                if idx % gen.n != 0:
                    return {}
                idx //= gen.n
            else:
                amp_phase = (amp_phase + idx * rep.twist(gen.gamma)) % 1
        return {idx: mp.expjpi(2 * mpf_from_fraction(amp_phase))}


def _vec_sub(u: dict, v: dict):
    out = dict(u)
    for i, a in v.items():
        out[i] = out.get(i, mp.mpc(0)) - a
    return out


def _vec_add_scaled(u: dict, v: dict, c):
    out = dict(u)
    for i, a in v.items():
        out[i] = out.get(i, mp.mpc(0)) + c * a
    return out


def _vec_norm(u: dict):
    return mp.sqrt(mp.fsum(abs(a) ** 2 for a in u.values())) if u else mp.mpf(0)


def check_relations(rep: TruncatedRep, sample, ctx: PrecisionCtx = DEFAULT_CTX):
    """Verify the six defining relation families on the sampled basis
    vectors; returns {relation_name: max deviation (mpf)}.

    Families: (1) mu_n* mu_n = 1; (2) mu_{mn} = mu_m mu_n;
    (3) mu_m mu_n = mu_n mu_m for coprime m, n (checked with adjoints
    interleaved: mu_m mu_n* = mu_n* mu_m for gcd(m,n)=1);
    (4) e(a)e(b) = e(a+b); (5) e(gamma) mu_n = mu_n e(n gamma);
    (6) mu_n e(gamma) mu_n* = (1/n) sum_{n delta = gamma} e(delta).

    Each instance is (reach, lhs, rhs), each side a list of (coefficient,
    word); it is skipped for a sample index k <= N with k * reach > N,
    where its words may leave the truncation."""
    gammas = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
              Fraction(3, 7)]
    pairs = [(2, 3), (3, 4), (2, 5)]
    report = {}
    with ctx.workprec():
        families = {
            "mu_star_mu_identity": [(n, [(1, [mu_star(n), mu(n)])], [(1, [])])
                                    for n in (2, 3, 5, 6)],
            "mu_multiplicative": [(m * n, [(1, [mu(m * n)])], [(1, [mu(m), mu(n)])])
                                  for m, n in pairs],
            "coprime_commutation": [(m, [(1, [mu(m), mu_star(n)])],
                                     [(1, [mu_star(n), mu(m)])])
                                    for m, n in pairs if math.gcd(m, n) == 1],
            "e_group_law": [(1, [(1, [e(a), e(b)])], [(1, [e(a + b)])])
                            for a in gammas for b in gammas],
            "e_mu_twist": [(n, [(1, [e(g), mu(n)])], [(1, [mu(n), e(n * g)])])
                           for n in (2, 3) for g in gammas],
            "averaging": [(n, [(1, [mu(n), e(g), mu_star(n)])],
                           [(mp.mpf(1) / n, [e((g + j) / n)]) for j in range(n)])
                          for n in (2, 3) for g in gammas],
        }

        def side(terms, k):
            total: dict = {}
            for c, word in terms:
                total = _vec_add_scaled(total, apply_word(word, k, rep, ctx), c)
            return total

        for name, instances in families.items():
            worst = mp.mpf(0)
            for k in sample:
                for reach, lhs, rhs in instances:
                    if k <= rep.N < k * reach:
                        continue
                    worst = max(worst, _vec_norm(_vec_sub(side(lhs, k), side(rhs, k))))
            report[name] = worst
    return report


def partition_function(beta, ctx: PrecisionCtx = DEFAULT_CTX):
    """Riemann zeta at beta > 1 (the normalization of the KMS state)."""
    with ctx.workprec():
        beta = mp.mpf(beta)
        if not beta > 1:
            raise ValueError("partition function requires beta > 1")
        return hurwitz_zeta(beta, mp.mpf(1), ctx)


def kms_state(beta, gamma, twist: int = 1, ctx: PrecisionCtx = DEFAULT_CTX):
    """Equilibrium state value on the unitary e(gamma):

        zeta(beta)^{-1} sum_{k>=1} exp(2 pi i k r gamma) k^{-beta}.

    Splitting k by residue class j mod q (gamma = p/q reduced after the
    twist) turns the series into exact root-of-unity coefficients times
    Hurwitz zetas:  q^{-beta} sum_j e^{2 pi i j p'/q} zeta_H(beta, j/q),
    evaluated by the module's analytic continuation rather than raw
    truncation.  Returns (value, tail_bound) with tail_bound the
    Euler-Maclaurin target error."""
    with ctx.workprec():
        beta = mp.mpf(beta)
        if not beta > 1:
            raise ValueError("kms_state requires beta > 1")
        g = Fraction(gamma) % 1
        rep = TruncatedRep(N=1, galois_twist=twist)
        g = rep.twist(g)
        q = g.denominator
        z = partition_function(beta, ctx)
        total = mp.mpc(0)
        for j in range(1, q + 1):
            phase = mp.expjpi(2 * mpf_from_fraction(Fraction(j * g.numerator % q, q)))
            # the j = q term is zeta_H(beta, 1), the partition function
            total += phase * (z if j == q else hurwitz_zeta(beta, mp.mpf(j) / q, ctx))
        val = mp.power(q, -beta) * total / z
        return mp.mpc(val), mp.mpf(ctx.target_abs_err)
