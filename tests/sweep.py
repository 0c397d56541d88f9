"""Stark's conjecture on every small modulus: conjecture_check at 64 bits and
1e-12 on every integral ideal f of norm 2 to N in each of a set of fields,
with each outcome counted by the exit code and stderr prefix that `stark
conjecture` would give it.

    PYTHONPATH=src python tests/sweep.py sweep   # 147 moduli, a few seconds
    PYTHONPATH=src python tests/sweep.py probe   # 176 moduli, about half a minute

prints the counts as one JSON object and exits 1 unless they are the pinned
ones.  The sweep takes norms 2-30 in D = 2, 3, 5, 6, 7, 10.  The probe takes
norms 2-15 in seven fields whose fundamental units reach 10^120, where the
slice walk and the recognition of the coefficients meet their largest
inputs.  A recognition exit counts apart when its message names the bits by
which the error target must shrink."""

import json
import re
import sys
from collections import Counter

from starklab.cli import _EXITS
from starklab.numerics import PrecisionCtx
from starklab.quadfield import FieldCtx, QuadIdeal
from starklab.stark import _enumerate_coprime_ideals, conjecture_check

# name -> (fields, largest norm, pinned counts)
SETS = {
    "sweep": ((2, 3, 5, 6, 7, 10), 30, {
        "pass": 30,
        "exit 4: invalid input": 94,
        "exit 3: bound exceeded, a class has no member": 23,
    }),
    "probe": ((94, 151, 211, 331, 409, 661, 991), 15, {
        "pass": 49,
        "exit 4: invalid input": 107,
        "exit 3: convergence failure, bits named": 20,
    }),
}

CTX = PrecisionCtx(64, 1e-12)


def outcome(f) -> str:
    try:
        return "pass" if conjecture_check(f, CTX).passed else "exit 2: residual violation"
    except tuple(_EXITS) as exc:
        code, prefix = next(v for t, v in _EXITS.items() if isinstance(exc, t))
        if "has no member" in str(exc):
            prefix += ", a class has no member"
        elif re.search(r"algebraic integers .* \d+ bits smaller", str(exc)):
            prefix += ", bits named"
        return "exit %d: %s" % (code, prefix)
    except Exception as exc:  # the command would exit 1 with a traceback
        return "exit 1: %s" % type(exc).__name__


def run(name: str) -> Counter:
    fields, top, _ = SETS[name]
    counts = Counter()
    for D in fields:
        F = FieldCtx(D)
        for f in _enumerate_coprime_ideals(F, QuadIdeal.unit_ideal(F), top, above=1):
            counts[outcome(f)] += 1
    return counts


if __name__ == "__main__":
    name = sys.argv[1]
    counts = run(name)
    print(json.dumps(dict(sorted(counts.items()))))
    sys.exit(dict(counts) != SETS[name][2])
