"""Outside-in span tracer for the traced benchmark run.

`Tracer.install()` wraps the public functions and methods of starklab's
modules (the layers) from outside the package: each wrapper replaces the
module attribute and every import site that bound the same object, e.g.
`starklab.stark.coset_slice_reps` and `starklab.theta.coset_slice_reps`.
A wrapped call records one span (name, start, end, parent, op id) in memory;
the spans are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
A layer's self time is the sum of the self times of its spans, so the work
of an unwrapped helper counts for the layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("numerics", "quadfield", "pseudolattice", "hecke", "theta", "stark",
          "cyclotomic", "bc", "cli")

# Value types and one-line helpers called per lattice point or per field
# operation.  Wrapping them would cost more than the work they do; their time
# counts for the layer that calls them.
UNWRAPPED = {
    "quadfield.QuadElem", "quadfield.FieldCtx", "quadfield.CFState",
    "pseudolattice.IntMat2", "numerics.PrecisionCtx",
    "hecke.scalar_product", "numerics.mpf_from_fraction",
}
# Exact ideal products (HNF) are the one operator worth a span.
WRAPPED_DUNDERS = {"quadfield.QuadIdeal.__mul__"}
# Functions whose result length is recorded as `<name>.reps`.
COUNTED = {"pseudolattice.coset_slice_reps"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id, count]
        self.stack = []
        self.op = None   # set by the closed loop before each op

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counted = name in COUNTED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else None, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counted:
                    span[5] = len(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self):
        import click

        import starklab

        modules = {name: importlib.import_module("starklab." + name) for name in LAYERS}
        namespaces = [vars(starklab)] + [vars(m) for m in modules.values()]

        def rebind(orig, new):
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is orig:
                        ns[key] = new

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = "%s.%s" % (layer, attr)
                if attr.startswith("_") or name in UNWRAPPED:
                    continue
                if isinstance(obj, click.Command):
                    # a CLI command: its callback is the layer's code; the
                    # groups' callbacks are empty
                    if not isinstance(obj, click.Group):
                        obj.callback = self.wrap(name, obj.callback)
                elif getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from another layer, wrapped there
                elif inspect.isfunction(obj):
                    rebind(obj, self.wrap(name, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(name, obj)
        # the entry point: click's argument parsing and dispatch
        cli_main = modules["cli"].main
        cli_main.main = self.wrap("cli.main", cli_main.main)

    def _wrap_methods(self, cls_name, cls):
        for attr, raw in list(vars(cls).items()):
            name = "%s.%s" % (cls_name, attr)
            if attr.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def aggregate(self, records):
        """Per-function calls, self and total (inclusive) time and counts,
        per-layer self time, and the op wall time no root span covers."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, op, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        functions, layers = {}, {layer: 0.0 for layer in LAYERS}
        covered_ns = {}
        for i, (name, start, end, parent, op, count) in enumerate(spans):
            if op is None:
                continue  # set-up, outside the timed ops
            self_s = (end - start - child_ns[i]) / 1e9
            f = functions.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "reps": 0})
            f["calls"] += 1
            f["self_s"] += self_s
            f["reps"] += count
            if not self._inside(name, parent):
                f["total_s"] += (end - start) / 1e9
            layers[name.split(".", 1)[0]] += self_s
            if parent is None:
                covered_ns[op] = covered_ns.get(op, 0) + end - start
        wall_ns = sum(r["end_ns"] - r["start_ns"] for r in records)
        unaccounted_ns = wall_ns - sum(covered_ns.values())
        return {"functions": functions, "layers": layers,
                "wall_s": wall_ns / 1e9, "unaccounted_s": unaccounted_ns / 1e9,
                "spans": sum(1 for s in spans if s[4] is not None)}

    def _inside(self, name, parent):
        """Whether a span of `name` encloses this one (a recursive call, whose
        time the outer span's total already holds)."""
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
