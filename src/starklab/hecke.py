"""The family of complex lattices along the geodesic flow: for a
pseudolattice L and real t, the lattice {l e^{t/2} + i l' e^{-t/2}}, the
shifted points built from field elements, the geodesic period, and the
bilinear pairing (x.y) = x0 y1 + x1 y0 used by all theta transforms."""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp

from .numerics import DEFAULT_CTX, PrecisionCtx
from .pseudolattice import Pseudolattice, automorphism_group
from .quadfield import QuadElem


@dataclass
class HeckeLattice:
    """Complex lattice generated by the images of l1, l2 at flow time t;
    grow = e^{t/2} and shrink = e^{-t/2} are taken once, at the precision of
    the ctx given to hecke_lattice."""

    base: Pseudolattice
    t: object  # high-precision real
    gen1: object = field(default=None)  # mpc
    gen2: object = field(default=None)
    grow: object = field(default=None)  # mpf
    shrink: object = field(default=None)

    def flow_point(self, pair, ctx: PrecisionCtx = DEFAULT_CTX):
        """The point of an embedded pair (l, l') from embed_pair:
        l e^{t/2} + i l' e^{-t/2} at working precision."""
        x, x_conj = pair
        with ctx.workprec():
            return +(x * self.grow + 1j * x_conj * self.shrink)


def embed_pair(l: QuadElem, ctx: PrecisionCtx = DEFAULT_CTX):
    """The real embeddings (l, l') at working precision; they do not depend
    on the flow time, so a caller at many t embeds once."""
    return l.embed("id", ctx), l.embed("conj", ctx)


def hecke_lattice(L: Pseudolattice, t, ctx: PrecisionCtx = DEFAULT_CTX,
                  basis=None) -> HeckeLattice:
    """The lattice of L at flow time t; basis, when given, is
    (embed_pair(L.l1), embed_pair(L.l2)) at the ctx's precision."""
    if basis is None:
        basis = (embed_pair(L.l1, ctx), embed_pair(L.l2, ctx))
    with ctx.workprec():
        t = mp.mpf(t)
        lat = HeckeLattice(base=L, t=t, grow=mp.exp(t / 2), shrink=mp.exp(-t / 2))
        lat.gen1 = lat.flow_point(basis[0], ctx)
        lat.gen2 = lat.flow_point(basis[1], ctx)
        if lat.gen1.real * lat.gen2.imag - lat.gen2.real * lat.gen1.imag == 0:
            raise ArithmeticError("degenerate lattice generators")
        return lat


def scalar_product(x, y):
    """(x.y) = Im(xy) = x0 y1 + x1 y0."""
    x, y = mp.mpc(x), mp.mpc(y)
    return x.real * y.imag + x.imag * y.real


def covolume(lat: HeckeLattice, ctx: PrecisionCtx = DEFAULT_CTX):
    """|Re w1 Im w2 - Re w2 Im w1|; equals Delta(base) for every t."""
    with ctx.workprec():
        return +abs(
            lat.gen1.real * lat.gen2.imag - lat.gen2.real * lat.gen1.imag
        )


def geodesic_period(L: Pseudolattice, ctx: PrecisionCtx = DEFAULT_CTX):
    """2 log(eps_plus) with eps_plus the totally positive fundamental unit
    stabilizing L; shifting t by the period permutes the lattice points."""
    gen = automorphism_group(L).generator
    eps_plus = gen if gen.is_totally_positive() else gen * gen
    with ctx.workprec():
        return +(2 * mp.log(eps_plus.embed("id", ctx)))
