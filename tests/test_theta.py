import dataclasses
import functools
import json
import pathlib
from fractions import Fraction

import mpmath as mp
import pytest

from starklab.hecke import embed_pair, hecke_lattice
from starklab.numerics import PrecisionCtx, branch_sqrt_neg_iv
from starklab.pseudolattice import Pseudolattice
from starklab.quadfield import FieldCtx, QuadElem, fundamental_unit
from starklab.theta import (
    ComplexThetaSpec,
    RMThetaSpec,
    fourier_gaussian_pair,
    functional_equation_Theta,
    hecke_average_check,
    poisson_check,
    theta_complex,
    theta_rm,
)
from oracles import norm_coefficients_reference, theta_complex_reference

mp.mp.dps = 50

CTX = PrecisionCtx(128, 1e-30)
FAST = PrecisionCtx(96, 1e-14)

SUITE_D = [2, 3, 5]
SUITE_V = ["1j", "2j", "0.5+1j"]


def maximal_lattice(D):
    F = FieldCtx(D)
    return Pseudolattice(F, F.elem(1), F.omega)


def positive_unit(D):
    u = fundamental_unit(D)
    return u if u.is_totally_positive() else u * u


def standard_spec(D, v, eta=1, ctx=CTX):
    L = maximal_lattice(D)
    with ctx.workprec():
        spec = RMThetaSpec(
            L=L,
            l0=L.field.elem(1),
            m0=L.field.elem(0),
            eta=eta,
            epsU=positive_unit(D),
            v=mp.mpc(v),
        )
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# complex theta: classical value and the inversion identity
# ---------------------------------------------------------------------------


def test_theta_complex_against_brute_force_sum():
    # plain double loop over a large box, summed in raw iteration order,
    # with no tail-bound or enumeration logic shared with the implementation
    from starklab.hecke import scalar_product

    with CTX.workprec():
        g1, g2 = mp.mpc(1), mp.mpc("0.3", "1")
        lam0, mu0 = mp.mpc("0.3", "0.1"), mp.mpc("0.2")
        eta, v = mp.mpc(1, 2), mp.mpc("0.5", "1")
        spec = ComplexThetaSpec(lattice=(g1, g2), lambda0=lam0, mu0=mu0,
                                eta=eta, v=v)
        val = theta_complex(spec, CTX).value
        brute = mp.mpc(0)
        for m in range(-45, 46):
            for n in range(-45, 46):
                lam = m * g1 + n * g2
                z = lam0 + lam
                modsq = z.real ** 2 + z.imag ** 2
                brute += (
                    scalar_product(z, eta)
                    * mp.expjpi(v * modsq)
                    * mp.expjpi(-2 * scalar_product(lam, mu0))
                )
        brute *= mp.expjpi(-scalar_product(lam0, mu0))
        assert abs(val - brute) < 1e-28


def test_theta_complex_tail_bound_honest():
    with CTX.workprec():
        spec = ComplexThetaSpec(
            lattice=(mp.mpc(1), mp.mpc(0, 1)),
            lambda0=mp.mpc("0.3", "0.1"),
            mu0=mp.mpc("0.2"),
            eta=mp.mpc(1, 1),
            v=mp.mpc("0.5", "1"),
        )
        lo = theta_complex(spec, PrecisionCtx(96, 1e-18))
        hi = theta_complex(spec, PrecisionCtx(160, 1e-40))
        assert abs(lo.value - hi.value) < 10 * lo.tail_bound + mp.mpf("1e-17")


@pytest.mark.parametrize("D", SUITE_D)
@pytest.mark.parametrize("vtxt", SUITE_V)
def test_functional_equation_complex(D, vtxt):
    # the inversion identity is the Poisson identity on the Hecke lattice;
    # at a lattice point with eta = 1 both sides vanish under z -> -z, so
    # the shift is the embedding of 1/3, where the theta value is not 0
    with CTX.workprec():
        v = mp.mpc(complex(vtxt))
        third = embed_pair(FieldCtx(D).elem(Fraction(1, 3)), CTX)
        for t in (0, mp.mpf("0.7")):
            lat = hecke_lattice(maximal_lattice(D), t, CTX)
            spec = ComplexThetaSpec(
                lattice=lat,
                lambda0=lat.flow_point(third, CTX),
                mu0=0,
                eta=1,
                v=v,
            )
            assert abs(theta_complex(spec, CTX).value) > 0.01
            assert poisson_check(spec.lattice, spec.v, spec.eta,
                                 shift=(spec.lambda0, spec.mu0), ctx=CTX) < 1e-10


@pytest.mark.parametrize("D", SUITE_D)
@pytest.mark.parametrize("vtxt", SUITE_V)
def test_functional_equation_unit_averaged(D, vtxt):
    with CTX.workprec():
        spec = standard_spec(D, complex(vtxt))
        assert functional_equation_Theta(spec, CTX) < 1e-10


# ---------------------------------------------------------------------------
# Poisson summation
# ---------------------------------------------------------------------------


def test_poisson_on_square_lattice():
    with CTX.workprec():
        for v in (mp.mpc(0, 1), mp.mpc("0.5", "1")):
            for shift in ((0, 0), (mp.mpf("0.3"), mp.mpf("-0.2"))):
                r = poisson_check((mp.mpc(1), mp.mpc(0, 1)), v, mp.mpc(1, 2),
                                  shift=shift, ctx=CTX)
                assert r < 1e-12


@pytest.mark.parametrize("D", SUITE_D)
@pytest.mark.parametrize("t", ["0", "0.7"])
def test_poisson_on_flowed_field_lattices(D, t):
    with CTX.workprec():
        lat = hecke_lattice(maximal_lattice(D), mp.mpf(t), CTX)
        for shift in ((0, 0), (mp.mpf("0.25"), mp.mpf("0.1"))):
            r = poisson_check(lat, mp.mpc(0, 1), mp.mpc(1), shift=shift, ctx=CTX)
            assert r < 1e-12


def test_fourier_transform_closed_form_matches_quadrature():
    with FAST.workprec():
        for eta in (mp.mpc(1), mp.mpc(1, 2)):
            for y in (mp.mpc("0.5", "0.25"), mp.mpc(0, 1)):
                closed, quad = fourier_gaussian_pair(eta, mp.mpc(0, 1), y, FAST)
                assert abs(closed - quad) < 1e-10


# ---------------------------------------------------------------------------
# unit-averaged theta: slice structure and Hecke averaging
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("D", SUITE_D)
def test_squared_unit_doubles_the_average(D):
    # averaging over the index-2 subgroup generated by epsU^2 enumerates two
    # copies of each <epsU>-orbit
    with CTX.workprec():
        spec = standard_spec(D, 1j)
        big = RMThetaSpec(
            L=spec.L, l0=spec.l0, m0=spec.m0, eta=spec.eta,
            epsU=spec.epsU * spec.epsU, v=spec.v,
        )
        big.validate()
        v1 = theta_rm(spec, CTX)
        v2 = theta_rm(big, CTX)
        assert abs(v2.value - 2 * v1.value) < 1e-25 + 10 * (v1.tail_bound + v2.tail_bound)


@pytest.mark.parametrize("D", SUITE_D)
@pytest.mark.parametrize("vtxt", SUITE_V)
def test_hecke_averaging_identity(D, vtxt):
    with FAST.workprec():
        spec = standard_spec(D, complex(vtxt), ctx=FAST)
        assert hecke_average_check(spec, FAST) < 1e-8


def test_spec_validation_rejects_bad_data():
    L = maximal_lattice(5)
    F = L.field
    good = standard_spec(5, 1j)
    bad = [
        RMThetaSpec(L=L, l0=F.elem(1), m0=F.elem(0), eta=1,
                    epsU=good.epsU, v=mp.mpc(0, -1)),
        RMThetaSpec(L=L, l0=F.elem(1), m0=F.elem(0), eta=1,
                    epsU=good.epsU, v=mp.mpc(1, 0)),
        # norm -1 unit
        RMThetaSpec(L=L, l0=F.elem(1), m0=F.elem(0), eta=1,
                    epsU=fundamental_unit(5), v=mp.mpc(0, 1)),
        # coset not stabilized: l0 with denominator 3, eps - 1 not in 3*L
        RMThetaSpec(L=L, l0=QuadElem(5, Fraction(1, 3)),
                    m0=F.elem(0), eta=1, epsU=good.epsU, v=mp.mpc(0, 1)),
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            spec.validate()
        # theta_rm rejects it too (its cutoff needs Im v > 0, and
        # norm_coefficients validates)
        with pytest.raises(ValueError):
            theta_rm(spec, CTX)


# ---------------------------------------------------------------------------
# nondegenerate configurations (nonvanishing theta)
# ---------------------------------------------------------------------------
# For l0 in L the coset is negation-symmetric and the averaged theta
# vanishes identically, so the identities above hold as 0 = 0.  The shift
# l0 = 1/11 on the D = 5 maximal lattice breaks that symmetry: no unit
# congruent to 1 mod p11 is totally negative, and the value is nonzero.


def nondegenerate_spec(v):
    from starklab.quadfield import QuadIdeal, unit_mod_f

    F = FieldCtx(5)
    L = maximal_lattice(5)
    f = QuadIdeal.from_generators(F, [11, F.omega + 3])
    ud = unit_mod_f(F, f)
    spec = RMThetaSpec(L=L, l0=F.elem(1) / F.elem(11), m0=F.elem(0),
                       eta=1, epsU=ud.eps_f_plus, v=mp.mpc(v))
    spec.validate()
    return spec


def test_nondegenerate_theta_is_nonzero():
    with CTX.workprec():
        tv = theta_rm(nondegenerate_spec(1j), CTX)
        assert abs(tv.value) > mp.mpf("0.5")


@pytest.mark.parametrize("vtxt", SUITE_V)
def test_nondegenerate_functional_equation(vtxt):
    with CTX.workprec():
        spec = nondegenerate_spec(complex(vtxt))
        assert functional_equation_Theta(spec, CTX) < 1e-25


def test_nondegenerate_hecke_averaging():
    with FAST.workprec():
        spec = nondegenerate_spec(1j)
        assert hecke_average_check(spec, FAST) < 1e-10


def test_nondegenerate_squared_unit_doubles():
    with CTX.workprec():
        spec = nondegenerate_spec(1j)
        big = RMThetaSpec(L=spec.L, l0=spec.l0, m0=spec.m0, eta=spec.eta,
                          epsU=spec.epsU * spec.epsU, v=spec.v)
        big.validate()
        v1 = theta_rm(spec, CTX)
        v2 = theta_rm(big, CTX)
        assert abs(v1.value) > mp.mpf("0.5")
        assert abs(v2.value - 2 * v1.value) < 1e-25 + 10 * (
            v1.tail_bound + v2.tail_bound)


# ---------------------------------------------------------------------------
# the summation schemes: reduced-basis row walks and the by-norm fold
# ---------------------------------------------------------------------------


def _theta_complex_at(lattice, lam0, mu0, eta, v):
    spec = ComplexThetaSpec(lattice=lattice, lambda0=lam0, mu0=mu0, eta=eta, v=v)
    return theta_complex(spec, CTX).value


@pytest.mark.parametrize("case", ["skew", "hecke_t3"])
def test_theta_complex_is_basis_independent(case):
    # a unimodular change of basis enumerates the same points, so the sums
    # agree to rounding; the t = 3 Hecke lattice is far from reduced
    with CTX.workprec():
        if case == "skew":
            g1, g2 = mp.mpc(1), mp.mpc("0.3", "1")
        else:
            F = FieldCtx(5)
            lat = hecke_lattice(Pseudolattice(F, F.elem(1), F.omega), 3, CTX)
            g1, g2 = lat.gen1, lat.gen2
        lam0, mu0 = mp.mpc("0.3", "0.1"), mp.mpc("0.2", "-0.4")
        eta, v = mp.mpc(1, 2), mp.mpc("0.5", "1")
        base = _theta_complex_at((g1, g2), lam0, mu0, eta, v)
        assert abs(base) > mp.mpf("0.01")
        for basis in ((g2, g1), (g1 + 7 * g2, g2), (g1, g2 - 3 * g1)):
            assert abs(_theta_complex_at(basis, lam0, mu0, eta, v) - base) < 1e-40
        if case == "hecke_t3":
            assert abs(_theta_complex_at(lat, lam0, mu0, eta, v) - base) < 1e-40


def test_theta_complex_makes_at_most_eight_expjpi_calls(monkeypatch):
    # q1, q2, w, the centre term and its three ratios, and the constant,
    # whatever the row count: the walk runs on integers from there
    import starklab.theta as th

    rows, calls = [], []
    disk_rows, expjpi = th._disk_rows, mp.expjpi

    def recording_rows(*args):
        out = disk_rows(*args)
        rows.append(out)
        return out

    def counting_expjpi(x):
        calls.append(x)
        return expjpi(x)

    monkeypatch.setattr(th, "_disk_rows", recording_rows)
    monkeypatch.setattr(mp, "expjpi", counting_expjpi)
    with CTX.workprec():
        F = FieldCtx(5)
        lat = hecke_lattice(Pseudolattice(F, F.elem(1), F.omega), mp.mpf("0.7"), CTX)
        for v in (mp.mpc(0, "0.5"), mp.mpc("-0.5", "0.5"), mp.mpc("0.25", "0.25")):
            rows.clear()
            calls.clear()
            _theta_complex_at(lat, mp.mpc("0.3", "0.1"), mp.mpc("0.2", "-0.4"),
                              mp.mpc(1, 2), v)
            (row_list,) = rows
            assert len(row_list) > 8
            assert len(calls) <= 8


def test_theta_complex_of_a_disk_without_points():
    # lambda0 at the centre of a wide cell: no point lies within R of 0
    spec = ComplexThetaSpec(lattice=(mp.mpc(10), mp.mpc(0, 10)),
                            lambda0=mp.mpc(5, 5), mu0=0, eta=1, v=mp.mpc(0, 4))
    got = theta_complex(spec, CTX)
    assert got.value == 0
    assert 0 < got.tail_bound < CTX.target_abs_err


def test_theta_complex_where_row_minimisers_tie(monkeypatch):
    # on a rotated square lattice with lambda0 = g1/2 every row's minimiser
    # of |z| lies halfway between two points, so float rounding moves b*
    # down as well as up from row to row, and the passes step back along h2
    import starklab.theta as th

    rows = []
    disk_rows = th._disk_rows

    def recording_rows(*args):
        rows.append(disk_rows(*args))
        return rows[-1]

    monkeypatch.setattr(th, "_disk_rows", recording_rows)
    with CTX.workprec():
        g1 = mp.expj(mp.mpf("0.1"))
        g2 = 1j * g1
        lam0, mu0, eta = g1 / 2, mp.mpc("0.2", "-0.4"), mp.mpc(1, 2)
        for v in (mp.mpc(0, 1), mp.mpc(0, "0.25")):
            got = theta_complex(ComplexThetaSpec(lattice=(g1, g2), lambda0=lam0,
                                                 mu0=mu0, eta=eta, v=v), CTX)
            with mp.workprec(256):
                radius = mp.sqrt(168 * mp.log(2) / (mp.pi * v.imag)) + 1
            ((expected, size),) = theta_complex_reference(g1, g2, lam0, mu0, [eta],
                                                          v, radius, 128)
            with mp.workprec(256):
                bound = mp.ldexp(1 + size, -138) + got.tail_bound
                assert abs(got.value - expected) < bound
    assert any(later < earlier for row_list in rows
               for (_, _, _, earlier), (_, _, _, later) in zip(row_list, row_list[1:]))


# the oracle sweep: two lattices, Im v from wide to narrow disks with both
# signs of Re v, the zero shift and two off-lattice ones (lambda0 = 1/2 lies
# halfway between two points of a row of the skewed basis), real, imaginary
# and complex eta, and three precisions
_SWEEP_IM_V = ("0.25", "1", "2", "4")
_SWEEP_SHIFTS = (("0", "0"), ("0.3+0.1j", "0.2-0.4j"), ("0.5", "-0.35+0.5j"))
_SWEEP_ETAS = (1, 1j, 1 + 2j)
_SWEEP_BITS = (64, 128, 256)


@functools.cache
def _sweep_lattice(case):
    if case == "skew":
        return mp.mpc(1), mp.mpc("0.3", "1")
    # built at 600 bits, above the oracle's 512
    F = FieldCtx(5)
    ctx = PrecisionCtx(600, 1e-30)
    with ctx.workprec():
        lat = hecke_lattice(Pseudolattice(F, F.elem(1), F.omega), 3, ctx)
    return lat.gen1, lat.gen2


@functools.cache
def _sweep_reference(case, v, shift, bits):
    # past this radius the terms sum to far below 2^-(bits+10)
    g1, g2 = _sweep_lattice(case)
    with mp.workprec(2 * bits):
        radius = mp.sqrt((bits + 40) * mp.log(2) / (mp.pi * mp.mpc(v).imag)) + 1
    return theta_complex_reference(g1, g2, mp.mpc(complex(shift[0])),
                                   mp.mpc(complex(shift[1])), _SWEEP_ETAS, v,
                                   radius, bits)


def _sweep_failures(case):
    """The sweep cases where theta_complex misses the oracle by more than
    2^-(bits+10) (1 + sum of |terms|) plus its tail bound."""
    g1, g2 = _sweep_lattice(case)
    failures = []
    for im in _SWEEP_IM_V:
        for re in ("0.5", "-0.5"):
            v = complex(re + "+" + im + "j")
            for shift in _SWEEP_SHIFTS:
                for bits in _SWEEP_BITS:
                    refs = _sweep_reference(case, v, shift, bits)
                    ctx = PrecisionCtx(bits, 1e-10)
                    for eta, (expected, size) in zip(_SWEEP_ETAS, refs):
                        with ctx.workprec():
                            spec = ComplexThetaSpec(
                                lattice=(g1, g2), lambda0=mp.mpc(complex(shift[0])),
                                mu0=mp.mpc(complex(shift[1])), eta=mp.mpc(eta),
                                v=mp.mpc(v))
                            got = theta_complex(spec, ctx)
                        with mp.workprec(2 * bits):
                            bound = mp.ldexp(1 + size, -(bits + 10)) + got.tail_bound
                            if abs(got.value - expected) > bound:
                                failures.append((v, shift, eta, bits))
    return failures


@pytest.mark.parametrize("case", ["skew", "hecke_t3"])
def test_theta_complex_against_oracle_sweep(case):
    assert _sweep_failures(case) == []


def test_oracle_sweep_fails_without_the_walk_guard_bits(monkeypatch):
    # the guard bits that scale with Im(v) |h|^2 are needed: without them
    # the walk's fixed-point truncations miss the oracle at Im v = 4 on the
    # t = 3 Hecke lattice
    import starklab.theta as th

    monkeypatch.setattr(th, "_walk_guard_bits", lambda sigma, n1, n2: 0)
    failures = _sweep_failures("hecke_t3")
    assert failures
    assert {v.imag for v, _, _, _ in failures} == {4}


def _rm_spec_with_characters():
    # l0 = (7 - sqrt 5)/22 lies in p11'/11, so U = <eps == 1 mod p11>
    # stabilizes l0 + L; m0 = 1/2 + sqrt(5)/10 lies in the dual of L.  Both
    # have a sqrt(D) part and eta0 != eta1, so a conjugation or a sign swap
    # changes the value
    from starklab.quadfield import QuadIdeal, unit_mod_f

    F = FieldCtx(5)
    eps = unit_mod_f(F, QuadIdeal.from_generators(F, [11, F.omega + 3])).eps_f_plus
    spec = RMThetaSpec(L=maximal_lattice(5),
                       l0=QuadElem(5, Fraction(7, 22), Fraction(-1, 22)),
                       m0=QuadElem(5, Fraction(1, 2), Fraction(1, 10)),
                       eta=mp.mpc(1, 2), epsU=eps, v=mp.mpc("0.5", "1"))
    spec.validate()
    return spec


def _reference_theta_rm(spec, max_norm, ctx):
    """The definition summed representative by representative, in QuadElem
    and Fraction arithmetic with no reduction of the exponents."""
    from starklab.pseudolattice import coset_slice_reps

    def mpq(q):
        return mp.mpf(q.numerator) / q.denominator

    with ctx.workprec():
        v, eta = mp.mpc(spec.v), mp.mpc(spec.eta)
        m0c = spec.m0.conjugate()
        total = mp.mpc(0)
        for xi, _, _, absn in coset_slice_reps(spec.L, spec.l0, spec.epsU ** 2, max_norm):
            coef = eta.real * xi.conjugate().sign() + eta.imag * xi.sign()
            tr = ((xi - spec.l0) * m0c).trace()
            total += coef * mp.expjpi(2 * v * mpq(absn)) * mp.expjpi(-2 * mpq(tr))
        return total * mp.expjpi(-mpq((spec.l0 * m0c).trace()))


def _theta_rm_recording(monkeypatch, spec):
    """theta_rm(spec) with the max_norm it enumerates to and its expjpi
    call count."""
    import starklab.theta as th

    seen, calls = [], []
    slice_rows, expjpi = th.coset_slice_rows, mp.expjpi

    def recording_rows(L, l0, W, max_norm):
        seen.append(max_norm)
        return slice_rows(L, l0, W, max_norm)

    def counting_expjpi(x):
        calls.append(x)
        return expjpi(x)

    monkeypatch.setattr(th, "coset_slice_rows", recording_rows)
    monkeypatch.setattr(mp, "expjpi", counting_expjpi)
    value = theta_rm(spec, CTX).value
    (max_norm,) = seen
    return value, max_norm, len(calls)


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_theta_rm_matches_per_representative_sum(monkeypatch, side):
    spec = _rm_spec_with_characters()
    if side == "dual":
        spec = spec.dual_spec()
    value, max_norm, _ = _theta_rm_recording(monkeypatch, spec)
    assert abs(value) > mp.mpf("0.1")
    assert abs(value - _reference_theta_rm(spec, max_norm, CTX)) < 1e-40


def test_theta_rm_one_expjpi_per_norm_and_per_character(monkeypatch):
    from starklab.pseudolattice import coset_slice_reps
    from starklab.theta import _frac_mod1

    spec = _rm_spec_with_characters()
    _, max_norm, calls = _theta_rm_recording(monkeypatch, spec)
    reps = coset_slice_reps(spec.L, spec.l0, spec.epsU ** 2, max_norm)
    norms = {absn for _, _, _, absn in reps}
    m0c = spec.m0.conjugate()
    characters = {_frac_mod1((xi * m0c).trace()) for xi, _, _, _ in reps}
    assert len(characters) < len(norms) < len(reps)
    assert calls <= len(norms) + len(characters) + 1


def _checks_spec():
    # the benchmark's checks workload: D = 5, l0 = 1/11, U generated by the
    # least totally positive unit == 1 mod p11, v = 1/2 + i
    from starklab.quadfield import QuadIdeal, unit_mod_f

    F = FieldCtx(5)
    eps = unit_mod_f(F, QuadIdeal.from_generators(F, [11, F.omega + 3])).eps_f_plus
    spec = RMThetaSpec(L=maximal_lattice(5), l0=F.elem(1) / F.elem(11), m0=F.elem(0),
                       eta=1, epsU=eps, v=mp.mpc("0.5", "1"))
    spec.validate()
    return spec


def _benchmark_stark_inputs():
    """The benchmark's 16 Stark inputs, from bench/refs.json's keys."""
    from starklab.quadfield import QuadIdeal
    from starklab.stark import validate_pair

    ideals = {"D2_p7": (2, 7, 3, 1), "D5_p11": (5, 11, 3, 1)}
    refs = json.loads((pathlib.Path(__file__).resolve().parents[1]
                       / "bench" / "refs.json").read_text())["stark"]
    inputs = []
    for key in sorted(refs):
        name, l0 = key.split("/l0=")
        D, a, b, c = ideals[name]
        F = FieldCtx(D)
        inputs.append(validate_pair(QuadIdeal.from_generators(F, [a, F.from_coords(b, c)]),
                                    F.elem(int(l0))))
    return inputs


@pytest.mark.parametrize("bits, err", [(64, 1e-12), (128, 1e-30), (256, 1e-68)])
def test_norm_coefficients_match_the_fdot_assembly(monkeypatch, bits, err):
    # every coefficient that the zeta continuation and theta_rm read is
    # bit for bit the mp.fdot assembly's: both sides of the continuation of
    # the benchmark's Stark inputs, and theta_rm of specs with characters,
    # with eta = 1 + 2i and 0.3 - 0.7i, on both sides
    import starklab.stark as st
    import starklab.theta as th

    ctx = PrecisionCtx(bits, err)
    calls, real = [], th.norm_coefficients

    def recording(spec, max_norm, ctx):
        out = real(spec, max_norm, ctx)
        calls.append((spec, max_norm, ctx, out))
        return out

    monkeypatch.setattr(th, "norm_coefficients", recording)
    monkeypatch.setattr(st, "norm_coefficients", recording)
    for inp in _benchmark_stark_inputs():
        st._continuation_data(inp, ctx)
    characters = _rm_spec_with_characters()
    for spec in (characters, dataclasses.replace(characters, eta=mp.mpc("0.3", "-0.7")),
                 _checks_spec()):
        for side in (spec, spec.dual_spec()):
            theta_rm(side, ctx)
    assert len(calls) == 2 * 16 + 6
    for spec, max_norm, ctx, (dd, coeffs) in calls:
        ref_dd, ref = norm_coefficients_reference(spec, max_norm, ctx)
        assert dd == ref_dd and len(coeffs) > 5
        assert [(n, c._mpc_) for n, c in coeffs] == [(n, c._mpc_) for n, c in ref]

