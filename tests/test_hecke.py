import random

import mpmath as mp

from starklab.hecke import (
    covolume,
    embed_pair,
    geodesic_period,
    hecke_lattice,
    scalar_product,
)
from starklab.numerics import PrecisionCtx
from starklab.pseudolattice import Pseudolattice, delta
from starklab.quadfield import FieldCtx, QuadElem, fundamental_unit

from conftest import random_elem, random_pseudolattice

mp.mp.dps = 50

CTX = PrecisionCtx(128, 1e-30)


def test_covolume_independent_of_flow_time():
    rng = random.Random(21)
    for _ in range(25):
        L = random_pseudolattice(rng)
        base = covolume(hecke_lattice(L, 0, CTX), CTX)
        assert abs(base - abs(delta(L, CTX))) < 1e-30
        for t in ("0.7", "-1.3", "2.25"):
            assert abs(covolume(hecke_lattice(L, mp.mpf(t), CTX), CTX) - base) < 1e-28


def test_geodesic_period_equals_log_of_positive_unit():
    for D in (2, 3, 5, 13):
        F = FieldCtx(D)
        L = Pseudolattice(F, F.elem(1), F.omega)
        u = fundamental_unit(D)
        eps_plus = u if u.is_totally_positive() else u * u
        with CTX.workprec():
            expected = 2 * mp.log(eps_plus.embed("id", CTX))
            assert abs(geodesic_period(L, CTX) - expected) < 1e-30


def test_period_shift_permutes_lattice_points():
    # flowing by the full period maps the embedded lattice to itself:
    # the image of l at t + T equals the image of eps_plus * l at t
    for D in (2, 5):
        F = FieldCtx(D)
        L = Pseudolattice(F, F.elem(1), F.omega)
        u = fundamental_unit(D)
        eps_plus = u if u.is_totally_positive() else u * u
        T = geodesic_period(L, CTX)
        lat0 = hecke_lattice(L, 0, CTX)
        latT = hecke_lattice(L, T, CTX)
        rng = random.Random(22)
        with CTX.workprec():
            for _ in range(10):
                l = F.from_coords(rng.randint(-6, 6), rng.randint(-6, 6))
                lhs = latT.embed_point(l, CTX)
                rhs = lat0.embed_point(eps_plus * l, CTX)
                assert abs(lhs - rhs) < 1e-28


def test_embeddings_are_bit_identical_to_the_direct_formula():
    # e^{+-t/2} are taken once per lattice, at the lattice's precision, and
    # the embeddings (l, l') once per caller, for every t
    rng = random.Random(24)
    for _ in range(10):
        L = random_pseudolattice(rng)
        basis = (embed_pair(L.l1, CTX), embed_pair(L.l2, CTX))
        for t in (0, mp.mpf("0.7"), mp.mpf("-1.3"), 3):
            lat = hecke_lattice(L, t, CTX)
            for l in (L.l1, L.l2, random_elem(rng, L.field.D)):
                with CTX.workprec():
                    tt = mp.mpf(t)
                    direct = +(l.embed("id", CTX) * mp.exp(tt / 2)
                               + 1j * l.embed("conj", CTX) * mp.exp(-tt / 2))
                assert lat.embed_point(l, CTX) == direct
                assert lat.flow_point(embed_pair(l, CTX), CTX) == direct
            assert (lat.gen1, lat.gen2) == (lat.embed_point(L.l1, CTX),
                                            lat.embed_point(L.l2, CTX))
            pre = hecke_lattice(L, t, CTX, basis=basis)
            assert (pre.gen1, pre.gen2) == (lat.gen1, lat.gen2)


def test_pairing_matches_field_trace_form():
    # (x.y) for embedded points x = image(l), y = image(m) is t-independent
    # and equals the rational number Im_part(l * conj(m)) pairing:
    # (l e^{t/2} + i l' e^{-t/2}) . (m e^{t/2} + i m' e^{-t/2}) = l m' + l' m
    rng = random.Random(23)
    for _ in range(25):
        L = random_pseudolattice(rng)
        D = L.field.D
        l = random_elem(rng, D)
        m = random_elem(rng, D)
        exact = (l * m.conjugate()).trace()
        with CTX.workprec():
            for t in (0, mp.mpf("0.7")):
                lat = hecke_lattice(L, t, CTX)
                val = scalar_product(lat.embed_point(l, CTX), lat.embed_point(m, CTX))
                assert abs(val - mp.mpf(exact.numerator) / exact.denominator) < 1e-28


def test_scalar_product_is_alternating_on_real_axis():
    with CTX.workprec():
        x = mp.mpc(1.25, 0.5)
        y = mp.mpc(-0.75, 2)
        assert abs(scalar_product(x, y) - (x * y).imag) < 1e-30
