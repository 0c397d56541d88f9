import json
import math
import pathlib
import random
from fractions import Fraction

import mpmath as mp
import pytest

from starklab.numerics import BoundExceeded, PrecisionCtx
from starklab.pseudolattice import (
    IntMat2,
    Pseudolattice,
    apply_morphism,
    automorphism_group,
    coset_slice_reps,
    delta,
    dual,
    endomorphism_ring,
    ideal_to_pseudolattice,
    is_isomorphic,
    k0_pseudolattice,
)
from starklab.quadfield import FieldCtx, QuadElem, QuadIdeal, fundamental_unit
from starklab.stark import validate_pair
import starklab.pseudolattice as pl_mod
import starklab.stark as stark_mod
import starklab.theta as theta_mod

from conftest import SQUAREFREE_50, random_elem, random_pseudolattice
from oracles import canonicalize_into_slice, coset_slice_rows_reference

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# brute-force GL(2, Z) equivalence oracle
# ---------------------------------------------------------------------------


def brute_force_equivalent(th1: QuadElem, th2: QuadElem, bound: int = 20,
                           oriented: bool = True):
    """Search all integer matrices with |entries| <= bound for
    th2 = (a th1 + b) / (c th1 + d), det = +-1 (det = +1 when oriented).

    For each (c, d) the equation th2 * (c th1 + d) = a th1 + b determines
    (a, b) exactly from the (1, sqrt(D)) coordinates of the left side.
    Returns a witness IntMat2 or None."""
    if th1.D != th2.D:
        return None
    y1 = th1.y
    assert y1 != 0
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            denom = c * th1 + QuadElem(th1.D, d)
            if denom.is_zero():
                continue
            lhs = th2 * denom
            a_fr = lhs.y / y1
            if a_fr.denominator != 1:
                continue
            a = a_fr.numerator
            b_fr = lhs.x - a_fr * th1.x
            if b_fr.denominator != 1:
                continue
            b = b_fr.numerator
            if abs(a) > bound or abs(b) > bound:
                continue
            det = a * d - b * c
            if det == 1 or (det == -1 and not oriented):
                g = IntMat2(a, b, c, d)
                assert g.mobius(th1) == th2
                return g
    return None


def _random_unimodular(rng: random.Random, span: int = 5) -> IntMat2:
    """Random product of elementary shears: det = 1, entries stay small."""
    g = IntMat2.identity()
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-span, span)
        if rng.random() < 0.5:
            g = g * IntMat2(1, k, 0, 1)
        else:
            g = g * IntMat2(1, 0, k, 1)
    return g


def test_is_isomorphic_on_constructed_equivalent_pairs():
    rng = random.Random(7)
    found = 0
    for _ in range(50):
        L = random_pseudolattice(rng)
        g = _random_unimodular(rng)
        M = apply_morphism(g, L)
        flag, w = is_isomorphic(L, M, oriented=True)
        assert flag, (L, g)
        assert w.det() == 1
        assert w.mobius(L.theta()) == M.theta()
        # the brute-force oracle must agree whenever its search box suffices
        if max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) <= 20:
            if brute_force_equivalent(L.theta(), M.theta()) is not None:
                found += 1
    assert found >= 40


def test_is_isomorphic_on_conductor_distinct_pairs():
    # End(L) is an isomorphism invariant, so Z + Z*omega and Z + Z*(f*omega)
    # are never equivalent for f > 1
    rng = random.Random(8)
    for _ in range(50):
        D = rng.choice(SQUAREFREE_50)
        f = rng.choice([2, 3, 5, 7])
        F = FieldCtx(D)
        L = k0_pseudolattice(F.omega + rng.randint(0, 3))
        M = k0_pseudolattice(F.elem(f) * F.omega + rng.randint(0, 3))
        assert endomorphism_ring(L).conductor == 1
        assert endomorphism_ring(M).conductor == f
        flag, _ = is_isomorphic(L, M, oriented=False)
        assert not flag
        assert brute_force_equivalent(L.theta(), M.theta(), oriented=False) is None


def test_is_isomorphic_against_brute_force_on_random_pairs():
    rng = random.Random(9)
    for _ in range(100):
        L1 = random_pseudolattice(rng)
        L2 = random_pseudolattice(rng, D=L1.field.D)
        for oriented in (True, False):
            flag, w = is_isomorphic(L1, L2, oriented=oriented)
            brute = brute_force_equivalent(L1.theta(), L2.theta(),
                                           oriented=oriented)
            if brute is not None:
                assert flag
            if flag:
                assert w.mobius(L1.theta()) == L2.theta()
                if oriented:
                    assert w.det() == 1
                else:
                    assert w.det() in (1, -1)
            else:
                assert brute is None


def test_unoriented_flip_pair():
    F = FieldCtx(7)
    L = k0_pseudolattice(QuadElem(F.D, 0, 1))
    # x -> -1/x = (0*x - 1) / (1*x + 0) has det -1... use an explicit det -1 map
    g = IntMat2(0, 1, 1, 0)  # x -> 1/x, det = -1
    M = apply_morphism(g, L)
    oriented, _ = is_isomorphic(L, M, oriented=True)
    unoriented, w = is_isomorphic(L, M, oriented=False)
    assert unoriented
    if not oriented:
        assert w.det() == -1


# ---------------------------------------------------------------------------
# endomorphism ring conductor vs minimal-multiplier oracle
# ---------------------------------------------------------------------------


def conductor_oracle(L: Pseudolattice, cap: int = 2000) -> int:
    F = L.field
    for k in range(1, cap + 1):
        kom = F.elem(k) * F.omega
        if L.contains(L.l1 * kom) and L.contains(L.l2 * kom):
            return k
    raise AssertionError("conductor not found below cap")


def test_conductor_against_oracle():
    rng = random.Random(10)
    for _ in range(100):
        L = random_pseudolattice(rng)
        assert endomorphism_ring(L).conductor == conductor_oracle(L)


def test_conductor_of_scaled_standard_orders():
    for D in (2, 5, 13):
        F = FieldCtx(D)
        for f in (1, 2, 3, 6):
            L = Pseudolattice(F, F.elem(1), F.elem(f) * F.omega)
            assert endomorphism_ring(L).conductor == f


# ---------------------------------------------------------------------------
# trace dual vs exact membership oracle
# ---------------------------------------------------------------------------


def test_dual_against_membership_oracle():
    rng = random.Random(11)
    for _ in range(100):
        L = random_pseudolattice(rng)
        Ld = dual(L)
        D = L.field.D
        for _ in range(10):
            z = QuadElem(
                D,
                Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
            )
            t1 = (L.l1.conjugate() * z).trace()
            t2 = (L.l2.conjugate() * z).trace()
            in_dual = t1.denominator == 1 and t2.denominator == 1
            assert Ld.contains(z) == in_dual, (L, z)


def test_double_dual_is_identity():
    rng = random.Random(12)
    for _ in range(40):
        L = random_pseudolattice(rng)
        Ldd = dual(dual(L))
        assert Ldd.contains(L.l1) and Ldd.contains(L.l2)
        assert L.contains(Ldd.l1) and L.contains(Ldd.l2)


def test_dual_covolume_reciprocal():
    rng = random.Random(13)
    for _ in range(40):
        L = random_pseudolattice(rng)
        # Delta(L) * Delta(L^dual) = +-1/D exactly (the sqrt(D)^2 factor)
        prod = L.delta_exact() * dual(L).delta_exact()
        assert abs(prod) == Fraction(1, L.field.D)


# ---------------------------------------------------------------------------
# covolume under morphisms
# ---------------------------------------------------------------------------


def test_delta_scales_by_determinant():
    rng = random.Random(14)
    for _ in range(60):
        L = random_pseudolattice(rng)
        g = IntMat2(rng.randint(-5, 5), rng.randint(-5, 5),
                    rng.randint(-5, 5), rng.randint(-5, 5))
        if g.det() == 0:
            continue
        M = apply_morphism(g, L)
        assert abs(M.delta_exact()) == abs(g.det()) * abs(L.delta_exact())


def test_delta_of_maximal_order():
    for D in (2, 3, 5, 13):
        F = FieldCtx(D)
        L = Pseudolattice(F, F.elem(1), F.omega)
        # cross = l1*conj(l2) - l2*conj(l1) = -2*y(omega)*sqrt(D)
        expected = Fraction(2, 1) if D % 4 != 1 else Fraction(1, 1)
        assert abs(L.delta_exact()) == expected


# ---------------------------------------------------------------------------
# automorphisms and unit-orbit slices
# ---------------------------------------------------------------------------


def test_automorphism_group_of_maximal_order():
    for D in (2, 3, 5, 13, 21):
        F = FieldCtx(D)
        L = Pseudolattice(F, F.elem(1), F.omega)
        g = automorphism_group(L).generator
        assert g == fundamental_unit(D)


def test_automorphism_group_of_non_maximal_orders():
    # reference: the least exact power eps0^k with omega-coordinate in fZ
    for D in (2, 3, 5, 13):
        F = FieldCtx(D)
        eps0 = fundamental_unit(D)
        for f in range(2, 41):
            L = Pseudolattice(F, F.elem(1), f * F.omega)  # End L = Z + f*omega
            k = 1
            while F.coords(eps0 ** k)[1] % f:
                k += 1
            assert automorphism_group(L).generator == eps0 ** k, (D, f)
    # conductor 503 in Q(sqrt 5): the least such power is eps0^504
    F = FieldCtx(5)
    with pytest.raises(BoundExceeded):
        automorphism_group(Pseudolattice(F, F.elem(1), 503 * F.omega))


def test_slice_reps_unique_per_orbit():
    rng = random.Random(15)
    for _ in range(10):
        D = rng.choice([2, 3, 5, 13])
        F = FieldCtx(D)
        L = Pseudolattice(F, F.elem(1), F.omega)
        u0 = fundamental_unit(D)
        u = u0 if u0.is_totally_positive() else u0 * u0
        W = u * u
        l0 = random_elem(rng, D, span=2)
        reps = coset_slice_reps(L, l0, W, 40)
        for xi, a, b, absn in reps[:25]:
            # the orbit translates of a representative leave the slice
            for shifted in (xi * u, xi / u):
                back = canonicalize_into_slice(shifted, u, W)
                assert back == xi


def _slice_oracle(L, l0, W, X):
    """Independent enumeration: scan a box that provably covers the slice
    and apply the exact slice-membership predicate point by point.

    In the slice (1/W, W] with |N| <= X both |xi| and |xi'| are at most
    B = sqrt(X sqrt(W)), which bounds the coordinates of xi - l0 through
    the inverse of the embedding matrix; the box doubles that bound."""
    l1r, l1c = float(L.l1.embed("id")), float(L.l1.embed("conj"))
    l2r, l2c = float(L.l2.embed("id")), float(L.l2.embed("conj"))
    r = math.sqrt(float(X) * math.sqrt(float(W.embed("id")))) + max(
        abs(float(l0.embed("id"))), abs(float(l0.embed("conj"))))
    det = abs(l1r * l2c - l2r * l1c)
    amax = int(2 * r * (abs(l2r) + abs(l2c)) / det) + 2
    bmax = int(2 * r * (abs(l1r) + abs(l1c)) / det) + 2
    expected = set()
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            xi = l0 + a * L.l1 + b * L.l2
            if xi.is_zero() or abs(xi.norm()) > X:
                continue
            xi2, xic2 = xi * xi, xi.conjugate() ** 2
            in_slice = (W * xic2 - xi2).sign() >= 0 and \
                (W * xi2 - xic2).sign() > 0
            if in_slice:
                expected.add((xi.x, xi.y))
    return expected


def _slice_cases():
    """(L, l0, W, X): the shifted maximal order, the trace-dual of an ideal
    lattice (fractional generators), an l0 with a sqrt(D) part, and the
    wider slice W = u^4."""
    cases = []
    for D in (2, 5):
        F = FieldCtx(D)
        L = Pseudolattice(F, F.elem(1), F.omega)
        u0 = fundamental_unit(D)
        u = u0 if u0.is_totally_positive() else u0 * u0
        W = u * u
        cases.append((L, QuadElem(D, Fraction(1, 3), 0), W, 25))
        cases.append((L, QuadElem(D, Fraction(1, 3), Fraction(-1, 4)), W, 25))
        cases.append((L, QuadElem(D, Fraction(2, 5), Fraction(1, 2)), W * W, 12))
    F = FieldCtx(5)
    u = fundamental_unit(5) ** 2
    p11 = QuadIdeal.from_generators(F, [11, F.omega + 3])
    M = dual(ideal_to_pseudolattice(p11))
    assert M.l1.x.denominator > 1 or M.l1.y.denominator > 1 \
        or M.l2.x.denominator > 1 or M.l2.y.denominator > 1
    cases.append((M, F.elem(0), u * u, Fraction(1, 5)))
    cases.append((M, QuadElem(5, Fraction(1, 7), Fraction(1, 11)), u ** 4, Fraction(1, 5)))
    F = FieldCtx(3)
    u = fundamental_unit(3)
    M = dual(ideal_to_pseudolattice(QuadIdeal.principal(F, F.elem(5))))
    cases.append((M, F.elem(0), u * u, Fraction(1, 3)))
    return cases


def test_slice_reps_complete_and_exclusive():
    for L, l0, W, X in _slice_cases():
        reps = coset_slice_reps(L, l0, W, X)
        got = [(xi.x, xi.y) for xi, *_ in reps]
        assert len(got) == len(set(got)) > 10
        assert set(got) == _slice_oracle(L, l0, W, X)
        for xi, a, b, absn in reps:
            assert xi == l0 + a * L.l1 + b * L.l2
            assert absn == abs(xi.norm())
        assert [t[3] for t in reps] == sorted(t[3] for t in reps)


def _continuation_sides(monkeypatch, inputs, ctx):
    """The (L, l0, W, max_norm) of both sides of each input's continuation
    data at ctx, as the theta layer asks coset_slice_rows for them."""
    calls = []
    rows = theta_mod.coset_slice_rows
    monkeypatch.setattr(theta_mod, "coset_slice_rows",
                        lambda *args: calls.append(args) or rows(*args))
    for inp in inputs:
        stark_mod._continuation_data(inp.reduced(), ctx)
    monkeypatch.undo()
    assert len(calls) == 2 * len(inputs)
    return calls


def _sweep_slices(seed):
    """Random shifted lattices Z a + Z (b + c sqrt D) in D in {2, 3, 5, 13,
    46, 79} with W = u^2 and u^4, u the least totally positive unit, and
    about 40-200 rows each.  The box scan of coset_slice_rows_reference
    holds about 2 sqrt(W) / log(W) points per row, so X is cut down where
    that box would pass 2e6 points: D=46 with W = u^4 keeps no more than a
    row or two."""
    rng = random.Random(seed)
    cases = []
    for D in (2, 3, 5, 13, 46, 79):
        F = FieldCtx(D)
        u0 = fundamental_unit(D)
        u = u0 if u0.is_totally_positive() else u0 * u0
        for W in (u * u, u ** 4):
            w, log_w2 = math.sqrt(float(W.embed("id"))), math.log(float(W.embed("id")))
            for k in range(3):
                L = Pseudolattice(F, F.elem(rng.randint(1, 9)),
                                  QuadElem(D, rng.randint(-9, 9), rng.randint(1, 5)))
                # l0 = 0 puts points on the slice's boundaries and on the
                # cut |xi/xi'| = 1
                l0 = F.elem(0) if k == 0 else QuadElem(
                    D, Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                rows = min(rng.randint(40, 200), 2e6 * log_w2 / (2 * w))
                covol = float(L.delta_exact()) * math.sqrt(D)
                X = Fraction(max(1, round(64 * rows * covol / (2 * log_w2))), 64)
                cases.append((L, l0, W, X))
    return cases


def test_slice_rows_equal_the_box_scan(monkeypatch):
    # the sub-slice walk returns the box scan's rows, list for list, and
    # examines at most 4 candidates (rows solved, and points kept or tested)
    # per kept row: in each group, and in each call that keeps 40 rows.  A
    # call that keeps almost nothing still solves a row or so per triangle,
    # four for each ratio e^2 of the slice.
    ctx = PrecisionCtx(128, 1e-30)
    refs = json.loads((pathlib.Path(__file__).resolve().parents[1]
                       / "bench" / "refs.json").read_text())["stark"]
    bench = []
    for ref in refs.values():
        report = json.loads(ref["report"])
        F = FieldCtx(report["D"])
        bench.append(validate_pair(QuadIdeal(F, *report["ideal"]),
                                   F.elem(int(report["l0"][0]))))
    F = FieldCtx(5)
    skewed = validate_pair(QuadIdeal.from_generators(F, [209, F.omega + 80]), F.elem(19))
    groups = {
        "slice cases": _slice_cases(),
        "benchmark sides": _continuation_sides(monkeypatch, bench, ctx),
        "D=5 (209, 80, 1)": _continuation_sides(monkeypatch, [skewed], ctx),
        "sweep": _sweep_slices(21),
    }
    assert len(groups["benchmark sides"]) == 32
    for name, cases in groups.items():
        kept = examined = 0
        for L, l0, W, X in cases:
            before = pl_mod._EXAMINED[0]
            got = pl_mod.coset_slice_rows(L, l0, W, X)
            count = pl_mod._EXAMINED[0] - before
            assert got == coset_slice_rows_reference(L, l0, W, X), (name, L, l0, X)
            assert len(got[1]) < 40 or count <= 4 * len(got[1]), (name, L, l0, X, count)
            kept += len(got[1])
            examined += count
        assert examined <= 4 * kept, (name, examined, kept)


def test_slice_kernel_sign_matches_field_sign():
    # the one exact sign rule, behind the slice test and QuadElem.sign, at
    # near-cancelling r + t sqrt(D) taken from powers of the fundamental
    # unit (|r| up to 3e28, |r + t sqrt(D)| down to 1e-28), against 500-bit
    # floats; QuadElem.sign on rational coordinates clears denominators
    from starklab.quadfield import _sign_surd

    def reference(x, y, D):
        with mp.workprec(500):
            v = mp.mpf(x.numerator) / x.denominator \
                + mp.mpf(y.numerator) / y.denominator * mp.sqrt(D)
            return 0 if v == 0 else (1 if v > 0 else -1)

    for D in (2, 3, 5, 13, 46):
        e = fundamental_unit(D)
        power = QuadElem(D, 1)
        for _ in range(6):
            power = power * e
            x, y = int(2 * power.x), int(2 * power.y)
            for dx in range(-2, 3):
                for r, t in ((x + dx, -y), (-x + dx, y), (dx, 0), (0, dx)):
                    want = reference(Fraction(r), Fraction(t), D)
                    assert _sign_surd(r, t, D) == QuadElem(D, r, t).sign() == want
                    # r/2 + t/3 sqrt(D) and r/6 + t sqrt(D) keep the sign of
                    # 3r + 2t sqrt(D) and r + 6t sqrt(D)
                    for q in (QuadElem(D, Fraction(r, 2), Fraction(t, 3)),
                              QuadElem(D, Fraction(r, 6), t)):
                        assert q.sign() == reference(q.x, q.y, D)
    # QuadElem takes any D; a square one can make r^2 = D t^2
    with pytest.raises(ArithmeticError):
        QuadElem(4, -2, 1).sign()


def test_effective_cone_and_k0():
    F = FieldCtx(2)
    L = k0_pseudolattice(QuadElem(F.D, 0, 1))
    from starklab.pseudolattice import effective_cone_contains

    assert effective_cone_contains(L, 3, 1)        # 3 + sqrt(2) > 0
    assert not effective_cone_contains(L, -3, 1)   # -3 + sqrt(2) < 0
    assert effective_cone_contains(L, -1, 1)       # sqrt(2) - 1 > 0


def test_ideal_to_pseudolattice_membership():
    rng = random.Random(17)
    for _ in range(30):
        D = rng.choice([2, 3, 5, 13, 21])
        F = FieldCtx(D)
        g = F.from_coords(rng.randint(-5, 5), rng.randint(-5, 5))
        if g.is_zero():
            continue
        I = QuadIdeal.from_generators(F, [F.elem(rng.randint(1, 8)), g])
        L = ideal_to_pseudolattice(I)
        for _ in range(5):
            z = random_elem(rng, D, span=8)
            assert L.contains(z) == I.contains(z)
