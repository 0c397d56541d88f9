"""Batch command-line surface.

Subcommands: stark compute | stark conjecture | theta check-fe |
theta check-average | theta check-poisson | lattice classify |
lattice dual | cyclotomic table | bc kms.

Common flags: --prec <bits>, --err <decimal>, --out <dir>,
--format json|csv|both.  Reports are deterministic: all high-precision
numbers are serialized as decimal strings at the configured precision, so
identical configuration yields byte-identical JSON.

Exit codes: 0 all residuals within tolerance; 2 residual violation;
3 convergence failure or search bound exceeded; 4 invalid input, usage
errors included.

Input literals (rationals as strings, element [x, y] means x + y*sqrt(D)):
  ideal          {"D": 5, "ideal": [a, b, c]}     (the module a Z + (b + c w) Z)
  pseudolattice  {"D": 5, "l1": [x, y], "l2": [x, y]}
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from fractions import Fraction

import click
import mpmath as mp

from .numerics import ConvergenceError, PrecisionCtx
from .quadfield import FieldCtx, QuadElem, QuadIdeal, cf_expand, unit_mod_f
from .pseudolattice import (
    Pseudolattice,
    automorphism_group,
    delta,
    dual,
    endomorphism_ring,
    ideal_to_pseudolattice,
    is_isomorphic,
)
from .hecke import geodesic_period, hecke_lattice
from .theta import (
    RMThetaSpec,
    functional_equation_Theta,
    hecke_average_check,
    poisson_check,
)
from .stark import (
    BoundExceeded,
    ConditionFailed,
    RouteDisagreement,
    conjecture_check,
    partial_zeta_continued,
    stark_number,
    validate_pair,
)
from .cyclotomic import CongruenceClass, stark_q
from . import bc as bcmod

EXIT_OK = 0
EXIT_RESIDUAL = 2
EXIT_CONVERGENCE = 3
EXIT_INPUT = 4


class InputError(ValueError):
    pass


class ResidualViolation(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# parsing and serialization helpers
# ---------------------------------------------------------------------------


def _parse_rational(x) -> Fraction:
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, int):
            return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad rational literal %r: %s" % (x, exc))
    raise InputError("rational literals must be strings or integers, got %r" % x)


def _parse_json(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed %s literal: %s" % (what, exc))
    if not isinstance(obj, dict):
        raise InputError("%s literal must be a JSON object" % what)
    return obj


def parse_elem(F: FieldCtx, val) -> QuadElem:
    if isinstance(val, str):
        val = json.loads(val) if val.strip().startswith("[") else [val, "0"]
    if not (isinstance(val, list) and len(val) == 2):
        raise InputError("element literal must be [x, y], got %r" % val)
    return QuadElem(F.D, _parse_rational(val[0]), _parse_rational(val[1]))


def parse_ideal_literal(text: str) -> QuadIdeal:
    obj = _parse_json(text, "ideal")
    if "D" not in obj or "ideal" not in obj:
        raise InputError('ideal literal needs keys "D" and "ideal"')
    F = _make_field(obj["D"])
    hnf = obj["ideal"]
    if not (isinstance(hnf, list) and len(hnf) == 3):
        raise InputError("ideal entry must be [a, b, c]")
    a, b, c = (int(_parse_rational(t)) for t in hnf)
    if a <= 0 or c <= 0:
        raise InputError("ideal [a, b, c] requires a > 0 and c > 0")
    return QuadIdeal.from_generators(F, [F.elem(a), F.from_coords(b, c)])


def parse_lattice_literal(text: str) -> Pseudolattice:
    obj = _parse_json(text, "pseudolattice")
    for key in ("D", "l1", "l2"):
        if key not in obj:
            raise InputError('pseudolattice literal needs keys "D", "l1", "l2"')
    F = _make_field(obj["D"])
    l1 = parse_elem(F, obj["l1"])
    l2 = parse_elem(F, obj["l2"])
    try:
        return Pseudolattice(F, l1, l2)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad pseudolattice: %s" % exc)


def _make_field(D) -> FieldCtx:
    try:
        return FieldCtx(int(D))
    except (TypeError, ValueError) as exc:
        raise InputError("bad field discriminant parameter: %s" % exc)


def parse_complex(text: str):
    try:
        z = complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise InputError("bad complex literal %r: %s" % (text, exc))
    return mp.mpc(z)


def _numstr(x, ctx: PrecisionCtx) -> str:
    """ctx.dps significant digits of x, converted at the working precision
    (a conversion at mpmath's default 53 bits would round x to 16 digits)."""
    with ctx.workprec():
        return mp.nstr(mp.mpf(x), ctx.dps, strip_zeros=False)


def _numstr_c(x, ctx: PrecisionCtx):
    with ctx.workprec():
        x = mp.mpc(x)
    return {"re": _numstr(x.real, ctx), "im": _numstr(x.imag, ctx)}


def _fracstr(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 else str(q.numerator)


def emit_report(report: dict, rows, out: str | None, fmt: str, name: str):
    """Write the JSON/CSV renderings; print JSON to stdout when no --out."""
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        os.makedirs(out, exist_ok=True)
        if fmt in ("json", "both"):
            with open(os.path.join(out, name + ".json"), "w") as fh:
                fh.write(payload)
        if fmt in ("csv", "both"):
            header, data = rows
            with open(os.path.join(out, name + ".csv"), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(data)
    else:
        if fmt in ("json", "both"):
            sys.stdout.write(payload)
        if fmt in ("csv", "both"):
            buf = io.StringIO()
            w = csv.writer(buf)
            header, data = rows
            w.writerow(header)
            w.writerows(data)
            sys.stdout.write(buf.getvalue())


def common_options(fn):
    fn = click.option("--prec", type=int, default=128,
                      help="working precision in bits")(fn)
    fn = click.option("--err", type=str, default="1e-30",
                      help="target absolute error (decimal string)")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="output directory for report files")(fn)
    fn = click.option("--format", "fmt",
                      type=click.Choice(["json", "csv", "both"]),
                      default="json", help="report format")(fn)
    return fn


def _ctx(prec: int, err: str) -> PrecisionCtx:
    try:
        return PrecisionCtx(work_bits=prec, target_abs_err=float(err))
    except (TypeError, ValueError) as exc:
        raise InputError("bad precision configuration: %s" % exc)


def run_guarded(body) -> int:
    """Map exceptions to the exit-code contract."""
    try:
        body()
        return EXIT_OK
    except ResidualViolation as exc:
        click.echo("residual violation: %s" % exc, err=True)
        return EXIT_RESIDUAL
    except RouteDisagreement as exc:
        click.echo("residual violation: %s" % exc, err=True)
        return EXIT_RESIDUAL
    except ConvergenceError as exc:
        click.echo("convergence failure: %s" % exc, err=True)
        return EXIT_CONVERGENCE
    except BoundExceeded as exc:
        click.echo("bound exceeded: %s" % exc, err=True)
        return EXIT_CONVERGENCE
    except (InputError, ConditionFailed, ValueError, ZeroDivisionError) as exc:
        click.echo("invalid input: %s" % exc, err=True)
        return EXIT_INPUT


# ---------------------------------------------------------------------------
# command tree
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _usage_errors_as_input():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_INPUT
        raise


class _RootGroup(click.Group):
    """click exits with 2 on a usage error (missing option, malformed value,
    unknown command), the code reserved for residual violations here; the
    root group reports them as invalid input instead."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_as_input():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_as_input():
            return super().invoke(ctx)


@click.group(cls=_RootGroup)
def main():
    """High-precision laboratory for real quadratic zeta and theta data."""


@main.group()
def stark():
    """Partial zeta functions and Stark numbers."""


@main.group()
def theta():
    """Theta series identity checks."""


@main.group()
def lattice():
    """Pseudolattice classification tools."""


@main.group()
def cyclotomic():
    """Rational congruence-class zeta identities."""


@main.group()
def bc():
    """Hecke-algebra equilibrium states."""


def _default_theta_spec(D: int, ideal_text: str | None, v, ctx: PrecisionCtx):
    F = _make_field(D)
    if ideal_text:
        I = parse_ideal_literal(ideal_text)
        if I.field.D != F.D:
            raise InputError("ideal literal field does not match --D")
    else:
        I = QuadIdeal.unit_ideal(F)
    lat = ideal_to_pseudolattice(I)
    l0 = F.elem(1)
    ud = unit_mod_f(F, I)
    eps = ud.eps_f_plus
    for _ in range(25):
        spec = RMThetaSpec(L=lat, l0=l0, m0=F.elem(0), eta=1, epsU=eps, v=v)
        try:
            spec.validate()
            return spec
        except (ValueError, ArithmeticError):
            eps = eps * ud.eps_f_plus
    raise InputError("no valid totally positive unit found for this lattice")


@theta.command("check-fe")
@click.option("--D", "D", type=int, required=True)
@click.option("--v", "v_text", type=str, default="i", help="upper half plane point")
@click.option("--ideal", "ideal_text", type=str, default=None,
              help='ideal literal {"D":..,"ideal":[a,b,c]} for the lattice')
@common_options
def theta_check_fe(D, v_text, ideal_text, prec, err, out, fmt):
    """Residual of the theta functional equation at v."""
    def body():
        ctx = _ctx(prec, err)
        v = parse_complex(v_text)
        if not v.imag > 0:
            raise InputError("v must lie in the upper half plane")
        spec = _default_theta_spec(D, ideal_text, v, ctx)
        from .theta import theta_rm
        lhs = theta_rm(spec, ctx)
        resid = functional_equation_Theta(spec, ctx)
        tol = mp.mpf(ctx.target_abs_err) * 100 + 4 * lhs.tail_bound
        report = {
            "check": "theta-functional-equation",
            "D": D,
            "v": _numstr_c(v, ctx),
            "lhs": _numstr_c(lhs.value, ctx),
            "residual": _numstr(resid, ctx),
            "tolerance": _numstr(tol, ctx),
            "pass": bool(resid <= tol),
        }
        rows = (["check", "residual", "tolerance", "pass"],
                [["theta-functional-equation", "%.6e" % float(resid),
                  "%.6e" % float(tol), report["pass"]]])
        emit_report(report, rows, out, fmt, "theta_check_fe")
        if not report["pass"]:
            raise ResidualViolation("functional equation residual %s" % resid)
    sys.exit(run_guarded(body))


@theta.command("check-average")
@click.option("--D", "D", type=int, required=True)
@click.option("--v", "v_text", type=str, default="i")
@click.option("--ideal", "ideal_text", type=str, default=None)
@common_options
def theta_check_average(D, v_text, ideal_text, prec, err, out, fmt):
    """Residual of the geodesic-average identity between the two theta kinds."""
    def body():
        ctx = _ctx(prec, err)
        v = parse_complex(v_text)
        if not v.imag > 0:
            raise InputError("v must lie in the upper half plane")
        spec = _default_theta_spec(D, ideal_text, v, ctx)
        resid = hecke_average_check(spec, ctx)
        tol = mp.mpf(ctx.target_abs_err) * 1000
        report = {
            "check": "theta-geodesic-average",
            "D": D,
            "v": _numstr_c(v, ctx),
            "residual": _numstr(resid, ctx),
            "tolerance": _numstr(tol, ctx),
            "pass": bool(resid <= tol),
        }
        rows = (["check", "residual", "tolerance", "pass"],
                [["theta-geodesic-average", "%.6e" % float(resid),
                  "%.6e" % float(tol), report["pass"]]])
        emit_report(report, rows, out, fmt, "theta_check_average")
        if not report["pass"]:
            raise ResidualViolation("average residual %s" % resid)
    sys.exit(run_guarded(body))


@theta.command("check-poisson")
@click.option("--D", "D", type=int, required=True)
@click.option("--v", "v_text", type=str, default="i")
@click.option("--t", "t_val", type=float, default=0.0, help="geodesic flow time")
@click.option("--ideal", "ideal_text", type=str, default=None)
@common_options
def theta_check_poisson(D, v_text, t_val, ideal_text, prec, err, out, fmt):
    """Residual of the Poisson summation identity on the flowed lattice."""
    def body():
        ctx = _ctx(prec, err)
        v = parse_complex(v_text)
        if not v.imag > 0:
            raise InputError("v must lie in the upper half plane")
        F = _make_field(D)
        I = parse_ideal_literal(ideal_text) if ideal_text else QuadIdeal.unit_ideal(F)
        lat = hecke_lattice(ideal_to_pseudolattice(I), mp.mpf(t_val), ctx)
        resid = poisson_check(lat, v, mp.mpc(1), (0, 0), ctx)
        tol = mp.mpf(ctx.target_abs_err) * 100
        report = {
            "check": "poisson-summation",
            "D": D,
            "t": "%r" % t_val,
            "v": _numstr_c(v, ctx),
            "residual": _numstr(resid, ctx),
            "tolerance": _numstr(tol, ctx),
            "pass": bool(resid <= tol),
        }
        rows = (["check", "residual", "tolerance", "pass"],
                [["poisson-summation", "%.6e" % float(resid),
                  "%.6e" % float(tol), report["pass"]]])
        emit_report(report, rows, out, fmt, "theta_check_poisson")
        if not report["pass"]:
            raise ResidualViolation("poisson residual %s" % resid)
    sys.exit(run_guarded(body))


@stark.command("compute")
@click.option("--ideal", "ideal_text", type=str, required=True,
              help='ideal literal {"D":..,"ideal":[a,b,c]}')
@click.option("--l0", "l0_text", type=str, required=True,
              help='element literal [x, y] meaning x + y*sqrt(D)')
@click.option("--s", "s_values", type=str, multiple=True,
              help="additional evaluation points (complex literals)")
@common_options
def stark_compute(ideal_text, l0_text, s_values, prec, err, out, fmt):
    """Stark number S0 = exp(zeta'(0)) for a validated pair (L, l0)."""
    def body():
        ctx = _ctx(prec, err)
        L = parse_ideal_literal(ideal_text)
        l0 = parse_elem(L.field, l0_text)
        inp = validate_pair(L, l0)
        res = stark_number(inp, ctx)
        evals = []
        for sv in s_values:
            s = parse_complex(sv)
            evals.append({"s": _numstr_c(s, ctx),
                          "zeta": _numstr_c(partial_zeta_continued(inp, s, ctx), ctx)})
        report = {
            "check": "stark-number",
            "D": L.field.D,
            "ideal": list(L.hnf()),
            "l0": [_fracstr(l0.x), _fracstr(l0.y)],
            "zeta_prime_0": _numstr(res.zeta_prime_0, ctx),
            "s0": _numstr(res.s0, ctx),
            "zeta_0": _numstr(res.zeta_0, ctx),
            "route_gap": _numstr(res.route_gap, ctx),
            "evaluations": evals,
        }
        rows = (["quantity", "value"],
                [["zeta_prime_0", report["zeta_prime_0"]],
                 ["s0", report["s0"]],
                 ["zeta_0", report["zeta_0"]],
                 ["route_gap", report["route_gap"]]])
        emit_report(report, rows, out, fmt, "stark_compute")
    sys.exit(run_guarded(body))


@stark.command("conjecture")
@click.option("--modulus", "mod_text", type=str, required=True,
              help='conductor ideal literal {"D":..,"ideal":[a,b,c]}')
@click.option("--variant", type=click.Choice(["narrow", "wide"]), default="narrow")
@click.option("--height", type=int, default=1000, help="recognition height bound")
@common_options
def stark_conjecture(mod_text, variant, height, prec, err, out, fmt):
    """Class-invariance and algebraicity experiment over the ray classes."""
    def body():
        ctx = _ctx(prec, err)
        f = parse_ideal_literal(mod_text)
        rep = conjecture_check(f.field, f, ctx, variant=variant,
                               recognition_height=height)
        classes = [
            {
                "index": c.index,
                "representative": list(c.representative_hnf),
                "zeta_prime_0": _numstr(c.zeta_prime_0, ctx),
                "s0": _numstr(c.s0, ctx),
                "invariance_residual": (
                    _numstr(c.invariance_residual, ctx)
                    if c.invariance_residual is not None else None
                ),
            }
            for c in rep.classes
        ]
        coeffs = [
            {
                "degree": ce.degree,
                "value": _numstr(ce.value, ctx),
                "recognized": (
                    [_fracstr(ce.recognized[0]), _fracstr(ce.recognized[1])]
                    if ce.recognized is not None else None
                ),
                "residual": ("%.6e" % ce.residual
                             if ce.residual is not None else None),
            }
            for ce in rep.coefficients
        ]
        report = {
            "check": "conjecture",
            "D": rep.D,
            "modulus": list(rep.modulus_hnf),
            "variant": rep.variant,
            "classes": classes,
            "polynomial_coefficients": coeffs,
            "constant_term_norm": (
                _numstr(rep.constant_term_norm, ctx)
                if rep.constant_term_norm is not None else None
            ),
            "recognition_failures": list(rep.recognition_failures),
        }
        rows = (["class", "representative", "s0", "invariance_residual"],
                [[c["index"], "%s" % c["representative"], c["s0"],
                  c["invariance_residual"]] for c in classes])
        emit_report(report, rows, out, fmt, "stark_conjecture")
    sys.exit(run_guarded(body))


@lattice.command("classify")
@click.option("--lattice", "lat_text", type=str, required=True,
              help='pseudolattice literal {"D":..,"l1":[x,y],"l2":[x,y]}')
@click.option("--against", "other_text", type=str, default=None,
              help="second pseudolattice literal for an equivalence test")
@common_options
def lattice_classify(lat_text, other_text, prec, err, out, fmt):
    """Classification data of a pseudolattice; optional equivalence test."""
    def body():
        ctx = _ctx(prec, err)
        L = parse_lattice_literal(lat_text)
        order = endomorphism_ring(L)
        aut = automorphism_group(L)
        quotients, _, (start, period) = cf_expand(L.theta())
        cyc = quotients[start:start + period]
        report = {
            "check": "lattice-classify",
            "D": L.field.D,
            "conductor": order.conductor,
            "delta": _numstr(delta(L, ctx), ctx),
            "geodesic_period": _numstr(geodesic_period(L, ctx), ctx),
            "cf_cycle": list(cyc),
            "automorphism_generator": [
                _fracstr(aut.generator.x), _fracstr(aut.generator.y)
            ],
        }
        if other_text:
            M = parse_lattice_literal(other_text)
            if M.field.D != L.field.D:
                raise InputError("both pseudolattices must share the field")
            flag, witness = is_isomorphic(L, M, oriented=True)
            report["equivalent"] = bool(flag)
            report["witness"] = (
                [[witness.a, witness.b], [witness.c, witness.d]]
                if flag else None
            )
        rows = (["quantity", "value"],
                [[k, "%s" % v] for k, v in report.items() if k != "check"])
        emit_report(report, rows, out, fmt, "lattice_classify")
    sys.exit(run_guarded(body))


@lattice.command("dual")
@click.option("--lattice", "lat_text", type=str, required=True)
@common_options
def lattice_dual(lat_text, prec, err, out, fmt):
    """Trace-dual basis of a pseudolattice."""
    def body():
        ctx = _ctx(prec, err)
        L = parse_lattice_literal(lat_text)
        M = dual(L)
        report = {
            "check": "lattice-dual",
            "D": L.field.D,
            "l1": [_fracstr(L.l1.x), _fracstr(L.l1.y)],
            "l2": [_fracstr(L.l2.x), _fracstr(L.l2.y)],
            "dual_l1": [_fracstr(M.l1.x), _fracstr(M.l1.y)],
            "dual_l2": [_fracstr(M.l2.x), _fracstr(M.l2.y)],
            "delta": _numstr(delta(L, ctx), ctx),
            "dual_delta": _numstr(delta(M, ctx), ctx),
        }
        rows = (["basis", "x", "y"],
                [["dual_l1"] + report["dual_l1"], ["dual_l2"] + report["dual_l2"]])
        emit_report(report, rows, out, fmt, "lattice_dual")
    sys.exit(run_guarded(body))


@cyclotomic.command("table")
@click.option("--max-n", "max_n", type=int, default=20)
@click.option("--tol", type=str, default="1e-20",
              help="pass threshold for |lhs - rhs|")
@common_options
def cyclotomic_table(max_n, tol, prec, err, out, fmt):
    """Table of exp(-2 zeta'_(m,n)(0)) against 4 sin^2(m pi/n)."""
    def body():
        ctx = _ctx(prec, err)
        tolv = mp.mpf(tol)
        data = []
        worst = mp.mpf(0)
        for n in range(2, max_n + 1):
            for m in range(1, n):
                lhs, rhs = stark_q(CongruenceClass(m, n), ctx)
                gap = abs(lhs - rhs)
                worst = max(worst, gap)
                data.append({
                    "m": m, "n": n,
                    "lhs": _numstr(lhs, ctx),
                    "rhs": _numstr(rhs, ctx),
                    "abs_err": "%.6e" % float(gap),
                })
        report = {
            "check": "cyclotomic-table",
            "max_n": max_n,
            "rows": data,
            "max_abs_err": "%.6e" % float(worst),
            "tolerance": tol,
            "pass": bool(worst <= tolv),
        }
        rows = (["m", "n", "lhs", "rhs", "abs_err"],
                [[r["m"], r["n"], r["lhs"], r["rhs"], r["abs_err"]] for r in data])
        emit_report(report, rows, out, fmt, "cyclotomic_table")
        if not report["pass"]:
            raise ResidualViolation("max abs_err %s exceeds %s" % (worst, tol))
    sys.exit(run_guarded(body))


@bc.command("kms")
@click.option("--beta", type=str, required=True)
@click.option("--gamma", type=str, required=True, help="rational, e.g. 1/3")
@click.option("--twist", type=int, default=1)
@common_options
def bc_kms(beta, gamma, twist, prec, err, out, fmt):
    """Equilibrium state value on the unitary e(gamma)."""
    def body():
        ctx = _ctx(prec, err)
        try:
            b = mp.mpf(beta)
            g = Fraction(gamma)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("bad bc parameters: %s" % exc)
        val, tail = bcmod.kms_state(b, g, twist, ctx)
        report = {
            "check": "bc-kms",
            "beta": _numstr(b, ctx),
            "gamma": _fracstr(g % 1),
            "twist": twist,
            "value_re": _numstr(val.real, ctx),
            "value_im": _numstr(val.imag, ctx),
            "tail_bound": _numstr(tail, ctx),
        }
        rows = (["quantity", "value"],
                [["value_re", report["value_re"]],
                 ["value_im", report["value_im"]],
                 ["tail_bound", report["tail_bound"]]])
        emit_report(report, rows, out, fmt, "bc_kms")
    sys.exit(run_guarded(body))


if __name__ == "__main__":
    main()
