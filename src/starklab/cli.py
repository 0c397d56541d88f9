"""Batch command-line surface: nine report commands in five groups,
stark compute | stark conjecture | theta check-fe | theta check-average |
theta check-poisson | lattice classify | lattice dual | cyclotomic table |
bc kms, all run by `report_command` under one contract:

- common flags --prec <bits>, --err <decimal>, --out <dir>,
  --format json|csv|both;
- the report goes to stdout, or with --out to <group>_<command>.json and
  .csv in that directory (`theta check-fe` writes theta_check_fe.json).
  Numbers are decimal strings at the configured precision, so identical
  configuration yields byte-identical JSON;
- exit codes: 0 success; 2 a report with "pass": false, or the two Stark
  routes disagreeing; 3 convergence failure or search bound exceeded;
  4 invalid input, usage errors included.  A failure prints one stderr
  line starting with `residual violation:`, `convergence failure:`,
  `bound exceeded:` or `invalid input:`.

Input literals (rationals as strings, element [x, y] means x + y*sqrt(D)):
  ideal          {"D": 5, "ideal": [a, b, c]}     (the module a Z + (b + c w) Z)
  pseudolattice  {"D": 5, "l1": [x, y], "l2": [x, y]}
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import json
import os
import sys
from fractions import Fraction

import click
import mpmath as mp

from .numerics import ConvergenceError, PrecisionCtx
from .quadfield import FieldCtx, QuadElem, QuadIdeal, unit_mod_f, _hnf_2col
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
    theta_rm,
)
from .stark import (
    BoundExceeded,
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


# ---------------------------------------------------------------------------
# parsing and serialization helpers
# ---------------------------------------------------------------------------


def _parse_rational(x) -> Fraction:
    try:
        # a JSON true or false is a bool, which Python counts as an int
        if isinstance(x, (str, int)) and not isinstance(x, bool):
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
    entries = [_parse_rational(t) for t in hnf]
    if any(q.denominator != 1 for q in entries):
        raise InputError("ideal [a, b, c] needs integer entries, got %r" % hnf)
    a, b, c = (int(q) for q in entries)
    if a <= 0 or c <= 0:
        raise InputError("ideal [a, b, c] requires a > 0 and c > 0")
    # the module aZ + (b + c w)Z itself, rejected unless it is an ideal
    return QuadIdeal(F, *_hnf_2col([(a, 0), (b, c)]))


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
        if isinstance(D, bool) or int(D) != Fraction(D):
            raise ValueError("%r is not an integer" % (D,))
        return FieldCtx(int(D))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError("bad field discriminant parameter: %s" % exc)


def parse_complex(text: str):
    try:
        z = complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise InputError("bad complex literal %r: %s" % (text, exc))
    if not cmath.isfinite(z):
        raise InputError("complex literal %r is not finite" % text)
    return mp.mpc(z)


def _parse_upper_half_plane(text: str):
    v = parse_complex(text)
    if not v.imag > 0:
        raise InputError("v must lie in the upper half plane")
    return v


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


def _elemstr(e: QuadElem) -> list[str]:
    return [_fracstr(e.x), _fracstr(e.y)]


def _quantity_table(report: dict, keys):
    """The report with its `quantity,value` CSV table over the given keys."""
    return report, ["quantity", "value"], [[k, str(report[k])] for k in keys]


def emit_report(report: dict, header, rows, out: str | None, fmt: str, name: str):
    """Write the JSON/CSV renderings to <out>/<name>.json and .csv, or to
    stdout when no --out."""
    if out:
        os.makedirs(out, exist_ok=True)
    for ext in ("json", "csv"):
        if fmt not in (ext, "both"):
            continue
        with (open(os.path.join(out, name + "." + ext), "w", newline="") if out
              else contextlib.nullcontext(sys.stdout)) as fh:
            if ext == "json":
                fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
            else:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)


def _ctx(prec: int, err: str) -> PrecisionCtx:
    try:
        return PrecisionCtx(work_bits=prec, target_abs_err=float(err))
    except (TypeError, ValueError) as exc:
        raise InputError("bad precision configuration: %s" % exc)


# exception type -> (exit code, stderr prefix); the first match wins.
# InputError and stark.ConditionFailed are ValueErrors.
_EXITS = {
    RouteDisagreement: (EXIT_RESIDUAL, "residual violation"),
    ConvergenceError: (EXIT_CONVERGENCE, "convergence failure"),
    BoundExceeded: (EXIT_CONVERGENCE, "bound exceeded"),
    ValueError: (EXIT_INPUT, "invalid input"),
    ZeroDivisionError: (EXIT_INPUT, "invalid input"),
}


def run_guarded(body) -> int:
    """Run body, which returns an exit code; map its exceptions to the
    exit-code contract."""
    try:
        return body()
    except tuple(_EXITS) as exc:
        code, prefix = next(v for t, v in _EXITS.items() if isinstance(exc, t))
        click.echo("%s: %s" % (prefix, exc), err=True)
        return code


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


for _name, _help in (
    ("stark", "Partial zeta functions and Stark numbers."),
    ("theta", "Theta series identity checks."),
    ("lattice", "Pseudolattice classification tools."),
    ("cyclotomic", "Rational congruence-class zeta identities."),
    ("bc", "Hecke-algebra equilibrium states."),
):
    main.add_command(click.Group(_name, help=_help))


# in the order `--help` lists them, after each command's own options
_COMMON_OPTIONS = (
    click.option("--format", "fmt", type=click.Choice(["json", "csv", "both"]),
                 default="json", help="report format"),
    click.option("--out", type=click.Path(file_okay=False), default=None,
                 help="output directory for report files"),
    click.option("--err", type=str, default="1e-30",
                 help="target absolute error (decimal string)"),
    click.option("--prec", type=int, default=128, help="working precision in bits"),
)


def report_command(path: str, *options):
    """Register fn(ctx, **own_options) -> (report, csv_header, csv_rows) as
    the command `path` ("<group> <command>") with its own options and the
    common ones.  The runner builds the PrecisionCtx, writes the report as
    <group>_<command> (dashes as underscores), exits 2 on "pass": false (a
    report with "pass" also carries its "tolerance") and maps exceptions
    through run_guarded."""
    group, name = path.split()
    stem = "%s_%s" % (group, name.replace("-", "_"))

    def register(fn):
        def run(prec, err, out, fmt, **own):
            def body():
                report, header, rows = fn(_ctx(prec, err), **own)
                emit_report(report, header, rows, out, fmt, stem)
                if report.get("pass") is False:
                    click.echo("residual violation: %s exceeds its tolerance %s"
                               % (report["check"], report["tolerance"]), err=True)
                    return EXIT_RESIDUAL
                return EXIT_OK
            sys.exit(run_guarded(body))

        for option in reversed(options + _COMMON_OPTIONS):
            run = option(run)
        return main.commands[group].command(name, help=fn.__doc__)(run)
    return register


def _theta_ideal(D: int, ideal_text: str | None) -> QuadIdeal:
    """The --ideal literal, which must lie in the field of --D, or (1)."""
    F = _make_field(D)
    if not ideal_text:
        return QuadIdeal.unit_ideal(F)
    I = parse_ideal_literal(ideal_text)
    if I.field.D != F.D:
        raise InputError("ideal literal field does not match --D")
    return I


def _default_theta_spec(D: int, ideal_text: str | None, v):
    I = _theta_ideal(D, ideal_text)
    F = I.field
    # eps_f_plus is totally positive, > 1 and == 1 mod I, so it stabilizes
    # I and 1 + I, and m0 = 0 makes the character trivial: the spec is valid
    spec = RMThetaSpec(L=ideal_to_pseudolattice(I), l0=F.elem(1), m0=F.elem(0),
                       eta=1, epsU=unit_mod_f(F, I).eps_f_plus, v=v)
    spec.validate()
    return spec


def _theta_check(name: str, *extra):
    """A theta identity check: --D, --v, the extra options, --ideal."""
    return report_command(
        "theta " + name,
        click.option("--D", "D", type=int, required=True),
        click.option("--v", "v_text", type=str, default="i",
                     help="upper half plane point"),
        *extra,
        click.option("--ideal", "ideal_text", type=str, default=None,
                     help='ideal literal {"D":..,"ideal":[a,b,c]} for the lattice'),
    )


def _theta_report(check: str, D: int, v, resid, tol, ctx: PrecisionCtx, **extra):
    """A theta check's report and its one 4-column CSV row."""
    report = {
        "check": check,
        "D": D,
        "v": _numstr_c(v, ctx),
        "residual": _numstr(resid, ctx),
        "tolerance": _numstr(tol, ctx),
        "pass": bool(resid <= tol),
        **extra,
    }
    return report, ["check", "residual", "tolerance", "pass"], [
        [check, "%.6e" % float(resid), "%.6e" % float(tol), report["pass"]]]


@_theta_check("check-fe")
def theta_check_fe(ctx, D, v_text, ideal_text):
    """Residual of the theta functional equation at v."""
    v = _parse_upper_half_plane(v_text)
    spec = _default_theta_spec(D, ideal_text, v)
    lhs = theta_rm(spec, ctx)
    resid = functional_equation_Theta(spec, ctx)
    with ctx.workprec():
        tol = mp.mpf(ctx.target_abs_err) * 100 + 4 * lhs.tail_bound
    return _theta_report("theta-functional-equation", D, v, resid, tol, ctx,
                         lhs=_numstr_c(lhs.value, ctx))


@_theta_check("check-average")
def theta_check_average(ctx, D, v_text, ideal_text):
    """Residual of the geodesic-average identity between the two theta kinds."""
    v = _parse_upper_half_plane(v_text)
    spec = _default_theta_spec(D, ideal_text, v)
    resid = hecke_average_check(spec, ctx)
    with ctx.workprec():
        tol = mp.mpf(ctx.target_abs_err) * 1000
    return _theta_report("theta-geodesic-average", D, v, resid, tol, ctx)


# With shift (0, 0) and eta = 1 both sides of the Poisson identity cancel
# under z -> -z and the residual reads 0 by construction; this shift does not.
POISSON_SHIFT = ("0.3", "-0.2")


@_theta_check("check-poisson",
              click.option("--t", "t_val", type=float, default=0.0,
                           help="geodesic flow time"))
def theta_check_poisson(ctx, D, v_text, t_val, ideal_text):
    """Residual of the Poisson summation identity on the flowed lattice."""
    v = _parse_upper_half_plane(v_text)
    I = _theta_ideal(D, ideal_text)
    lat = hecke_lattice(ideal_to_pseudolattice(I), mp.mpf(t_val), ctx)
    resid = poisson_check(lat, v, mp.mpc(1), POISSON_SHIFT, ctx)
    with ctx.workprec():
        tol = mp.mpf(ctx.target_abs_err) * 100
    return _theta_report("poisson-summation", D, v, resid, tol, ctx, t="%r" % t_val,
                         shift=list(POISSON_SHIFT))


@report_command(
    "stark compute",
    click.option("--ideal", "ideal_text", type=str, required=True,
                 help='ideal literal {"D":..,"ideal":[a,b,c]}'),
    click.option("--l0", "l0_text", type=str, required=True,
                 help='element literal [x, y] meaning x + y*sqrt(D)'),
    click.option("--s", "s_values", type=str, multiple=True,
                 help="additional evaluation points (complex literals)"),
)
def stark_compute(ctx, ideal_text, l0_text, s_values):
    """Stark number S0 = exp(zeta'(0)) for a validated pair (L, l0)."""
    L = parse_ideal_literal(ideal_text)
    l0 = parse_elem(L.field, l0_text)
    points = [parse_complex(s) for s in s_values]
    inp = validate_pair(L, l0)
    res = stark_number(inp, ctx)
    evals = [{"s": _numstr_c(s, ctx),
              "zeta": _numstr_c(partial_zeta_continued(inp, s, ctx), ctx)}
             for s in points]
    report = {
        "check": "stark-number",
        "D": L.field.D,
        "ideal": list(L.hnf()),
        "l0": _elemstr(l0),
        "zeta_prime_0": _numstr(res.zeta_prime_0, ctx),
        "s0": _numstr(res.s0, ctx),
        "zeta_0": _numstr(res.zeta_0, ctx),
        "route_gap": _numstr(res.route_gap, ctx),
        "evaluations": evals,
    }
    return _quantity_table(report, ("zeta_prime_0", "s0", "zeta_0", "route_gap"))


@report_command(
    "stark conjecture",
    click.option("--modulus", "mod_text", type=str, required=True,
                 help='conductor ideal literal {"D":..,"ideal":[a,b,c]}'),
)
def stark_conjecture(ctx, mod_text):
    """Stark's conjecture on Cl_{f oo2}: class invariance, S0(C R2) = 1/S0(C)
    and algebraic-integer coefficients of the Stark polynomial."""
    f = parse_ideal_literal(mod_text)
    rep = conjecture_check(f, ctx)

    def num(x):
        return None if x is None else _numstr(x, ctx)

    classes = [{"index": c.index, "representative": list(c.representative_hnf),
                "zeta_prime_0": num(c.zeta_prime_0), "s0": num(c.s0),
                "invariance_residual": num(c.invariance_residual)}
               for c in rep.classes]
    coeffs = [{"degree": ce.degree, "value": num(ce.value),
               "recognized": ce.recognized and [_fracstr(q) for q in ce.recognized]}
              for ce in rep.coefficients]
    report = {
        "check": "conjecture",
        "D": f.field.D,
        "modulus": list(f.hnf()),
        "classes": classes,
        "polynomial_coefficients": coeffs,
        "recognition_failures": list(rep.recognition_failures),
        "inversion_residual": num(rep.inversion_residual),
        "tolerance": num(rep.tolerance),
        "pass": rep.passed,
    }
    return report, ["class", "representative", "s0", "invariance_residual"], [
        [c["index"], "%s" % c["representative"], c["s0"], c["invariance_residual"]]
        for c in classes]


@report_command(
    "lattice classify",
    click.option("--lattice", "lat_text", type=str, required=True,
                 help='pseudolattice literal {"D":..,"l1":[x,y],"l2":[x,y]}'),
    click.option("--against", "other_text", type=str, default=None,
                 help="second pseudolattice literal for an equivalence test"),
)
def lattice_classify(ctx, lat_text, other_text):
    """Classification data of a pseudolattice; optional equivalence test."""
    L = parse_lattice_literal(lat_text)
    order = endomorphism_ring(L)
    aut = automorphism_group(L)
    report = {
        "check": "lattice-classify",
        "D": L.field.D,
        "conductor": order.conductor,
        "delta": _numstr(delta(L, ctx), ctx),
        "geodesic_period": _numstr(geodesic_period(L, ctx), ctx),
        "cf_cycle": list(aut.cf_cycle),
        "automorphism_generator": _elemstr(aut.generator),
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
    return _quantity_table(report, [k for k in report if k != "check"])


@report_command(
    "lattice dual",
    click.option("--lattice", "lat_text", type=str, required=True),
)
def lattice_dual(ctx, lat_text):
    """Trace-dual basis of a pseudolattice."""
    L = parse_lattice_literal(lat_text)
    M = dual(L)
    report = {
        "check": "lattice-dual",
        "D": L.field.D,
        "l1": _elemstr(L.l1),
        "l2": _elemstr(L.l2),
        "dual_l1": _elemstr(M.l1),
        "dual_l2": _elemstr(M.l2),
        "delta": _numstr(delta(L, ctx), ctx),
        "dual_delta": _numstr(delta(M, ctx), ctx),
    }
    return report, ["basis", "x", "y"], [[k] + report[k] for k in ("dual_l1", "dual_l2")]


@report_command(
    "cyclotomic table",
    click.option("--max-n", "max_n", type=int, default=20),
)
def cyclotomic_table(ctx, max_n):
    """Table of exp(-2 zeta'_(m,n)(0)) against 4 sin^2(m pi/n)."""
    with ctx.workprec():
        tol = mp.mpf(ctx.target_abs_err) * 100
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
        "tolerance": _numstr(tol, ctx),
        "pass": bool(worst <= tol),
    }
    return report, ["m", "n", "lhs", "rhs", "abs_err"], [
        [r["m"], r["n"], r["lhs"], r["rhs"], r["abs_err"]] for r in data]


@report_command(
    "bc kms",
    click.option("--beta", type=str, required=True),
    click.option("--gamma", type=str, required=True, help="rational, e.g. 1/3"),
    click.option("--twist", type=int, default=1),
)
def bc_kms(ctx, beta, gamma, twist):
    """Equilibrium state value on the unitary e(gamma)."""
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
    return _quantity_table(report, ("value_re", "value_im", "tail_bound"))


if __name__ == "__main__":
    main()
