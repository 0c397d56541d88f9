"""Write refs.json: the reference value of every input a seed can draw.

The references were recorded at the commit that added the benchmark and are
the correctness gate for every later commit, so rerun this only to add
inputs, never to make a failing op pass.  Usage, from the repository root:

    PYTHONPATH=src python3 -B bench/make_refs.py

- stark: S0 from `stark_number` at 128 bits, 1e-30 (the CLI defaults), and
  the JSON report `starklab stark compute` prints for the same input;
- checks: the five KMS twist values (the residual checks need no reference);
- classes: class count and multiplication table of each modulus and variant.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath as mp

from starklab.bc import kms_state
from starklab.cli import main as cli_main
from starklab.numerics import PrecisionCtx
from starklab.stark import ray_classes, stark_number, validate_pair

from workload import KMS_GAMMA, MODULI, PAIRS, REFS_PATH, VARIANTS, ideal, stark_compute

CTX = PrecisionCtx(128, 1e-30)


def digits(x):
    return mp.nstr(x, 45)


def main():
    refs = {"stark": {}, "checks": {}, "classes": {}}
    for name, D, hnf, l0s in PAIRS:
        L = ideal(D, hnf)
        for l0 in l0s:
            inp = validate_pair(L, L.field.elem(l0))
            code, report = stark_compute(cli_main, D, hnf, l0)
            if code != 0:
                raise RuntimeError("stark compute exited with code %r" % code)
            refs["stark"]["%s/l0=%d" % (name, l0)] = {
                "s0": digits(stark_number(inp, CTX).s0), "report": report}
            print(name, l0, flush=True)
    with CTX.workprec():
        vals = [kms_state(mp.mpf(2), Fraction(KMS_GAMMA), r, CTX)[0] for r in (1, 2, 3, 4)]
        vals.append(kms_state(mp.mpf(2), Fraction(0), 1, CTX)[0])
    refs["checks"]["kms"] = [[digits(v.real), digits(v.imag)] for v in vals]
    for name, D, hnf, norm_bound in MODULI:
        f = ideal(D, hnf)
        for variant in VARIANTS:
            group = ray_classes(f, variant, norm_bound=norm_bound)
            refs["classes"]["%s/%s" % (name, variant)] = {
                "count": len(group), "table": [list(row) for row in group.table]}
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
