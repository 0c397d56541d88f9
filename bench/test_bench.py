"""Tests of the benchmark itself: the per-op gate can fail, and the tracer's
self-time arithmetic holds.  Run from the repository root:

    PYTHONPATH=src:bench python3 -m pytest -q bench/test_bench.py
"""

import json
import time

import mpmath as mp
import pytest

import speed
import workload
from layertrace import Tracer
from workload import WORKLOADS, Inputs, Op, closed_loop, run_op

REFS = json.loads(workload.REFS_PATH.read_text())


def reference_result(inputs, op):
    """The result that matches op's reference exactly, and one that misses
    it by more than the tolerance."""
    with mp.workdps(workload.CHECK_DIGITS):
        return _reference_result(inputs, op)


def _reference_result(inputs, op):
    kind = op.key.split("/", 1)[1]
    if inputs.workload == "stark":
        ref = inputs.refs[kind]
        computed = stark_computed(ref)
        off = dict(computed, s0=computed["s0"] + mp.mpf("1e-20"))
        return (ref["report"], computed), (ref["report"], off)
    if inputs.workload == "checks":
        if kind == "kms":
            vals = [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in inputs.refs["kms"]]
            return vals, vals[:-1] + [vals[-1] + mp.mpf("1e-14")]
        return mp.mpf(0), mp.mpf("1e-7")  # above every check's tolerance
    ref = inputs.refs[kind]
    table = [list(row) for row in ref["table"]]
    table[-1][-1] = (table[-1][-1] + 1) % ref["count"] if ref["count"] > 1 else 1
    return [ref["count"], ref["table"]], [ref["count"], table]


def stark_computed(ref):
    """The StarkResult fields behind a recorded `stark compute` report, with
    S0 at full precision."""
    report = json.loads(ref["report"])
    computed = {k: mp.mpf(report[k]) for k in ("zeta_prime_0", "zeta_0", "route_gap")}
    computed["s0"] = mp.mpf(ref["s0"])
    return computed


def returning(value):
    return lambda: value


def raising():
    raise ArithmeticError("planted failure")


@pytest.mark.parametrize("name", WORKLOADS)
def test_gate_fails_perturbed_and_raising_ops(name):
    inputs = Inputs(name, 0, REFS)
    for op in inputs.round() + inputs.round():
        good, bad = reference_result(inputs, op)
        assert run_op(Op(op.key, returning(good), op.check))[2], op.key
        assert not run_op(Op(op.key, returning(bad), op.check))[2], op.key
        assert not run_op(Op(op.key, raising, op.check))[2], op.key


def test_stark_gate_reads_the_report_to_its_printed_precision():
    inputs = Inputs("stark", 0, REFS)
    op = inputs.round()[0]
    ref = inputs.refs[op.key.split("/", 1)[1]]
    with mp.workdps(workload.CHECK_DIGITS):
        computed = stark_computed(ref)

    def report(**changes):
        return json.dumps(dict(json.loads(ref["report"]), **changes), indent=2)

    def ok(text, computed):
        return run_op(Op(op.key, returning((text, computed)), op.check))[2]

    assert ok(ref["report"], computed)
    # Rounding noise in the gap between the two routes passes ...
    gap = computed["route_gap"] * 2
    assert ok(report(route_gap=mp.nstr(gap, 40)), dict(computed, route_gap=gap))
    # ... a gap above the S0 tolerance does not.
    gap = mp.mpf("1e-20")
    assert not ok(report(route_gap=mp.nstr(gap, 40)), dict(computed, route_gap=gap))
    # A changed printed S0 digit, a printed S0 that is not the computed one,
    # and a changed structural field each fail.
    printed = json.loads(ref["report"])["s0"]
    digit = str((int(printed[10]) + 1) % 10)
    assert not ok(report(s0=printed[:10] + digit + printed[11:]), computed)
    assert not ok(ref["report"], dict(computed, zeta_prime_0=computed["zeta_prime_0"] * 2))
    assert not ok(report(l0=["2", "0"]), computed)


def test_closed_loop_counts_failed_ops():
    inputs = Inputs("classes", 0, REFS)
    real = inputs.round()[:3]
    good, bad = reference_result(inputs, real[0])
    planted = [Op(real[0].key, returning(good), real[0].check),
               Op(real[1].key, raising, real[1].check),
               Op(real[0].key, returning(bad), real[0].check)]
    inputs.round = lambda: list(planted)
    records = closed_loop(inputs, rounds=1)
    assert [r["ok"] for r in records] == [True, False, False]


def test_closed_loop_runs_whole_rounds_within_seconds():
    def nap():
        time.sleep(0.01)

    inputs = Inputs("classes", 0, REFS)
    inputs.round = lambda: [Op("a", nap, lambda r: True), Op("b", nap, lambda r: True)]
    records = closed_loop(inputs, seconds=0.1)
    # A round takes at least 0.02 s, so the mean-round rule admits at most
    # five rounds in 0.1 s; the first round always runs.
    assert 2 <= len(records) <= 10 and len(records) % 2 == 0
    assert [r["round"] for r in records] == [i // 2 for i in range(len(records))]


def test_op_times_are_rescaled_by_the_probes_beside_them():
    assert speed.at_reference_speed(2.0, speed.REF_S, speed.REF_S) == pytest.approx(2.0)
    # A machine running at half speed doubles both the op and its probes.
    slow = 2 * speed.REF_S
    assert speed.at_reference_speed(4.0, slow, slow) == pytest.approx(2.0)
    assert speed.at_reference_speed(3.0, speed.REF_S, slow) == pytest.approx(2.0)

    inputs = Inputs("classes", 0, REFS)
    inputs.round = lambda: [Op("a", lambda: None, lambda r: True)] * 2
    records = closed_loop(inputs, rounds=1)
    assert [len(r["probe_s"]) for r in records] == [2, 2]
    assert records[0]["probe_s"][1] == records[1]["probe_s"][0] > 0


def test_every_seed_draws_referenced_inputs():
    for name in WORKLOADS:
        for seed in range(20):
            for op in Inputs(name, seed, REFS).round():
                if name != "checks":
                    assert op.key.split("/", 1)[1] in REFS[name]


def test_tracer_self_time_and_accounting():
    tracer = Tracer()

    def leaf(n):
        return list(range(n))

    leaf_w = tracer.wrap("quadfield.leaf", leaf)

    def outer():
        return [len(leaf_w(1000)) for _ in range(3)]

    outer_w = tracer.wrap("stark.outer", outer)
    tracer.op = 0
    start = time.perf_counter_ns()
    outer_w()
    end = time.perf_counter_ns()
    agg = tracer.aggregate([{"start_ns": start, "end_ns": end}])
    assert agg["functions"]["quadfield.leaf"]["calls"] == 3
    assert agg["functions"]["stark.outer"]["calls"] == 1
    (o_name, o_start, o_end, *_), = [s for s in tracer.spans if s[3] is None]
    total = agg["layers"]["stark"] + agg["layers"]["quadfield"]
    assert total == pytest.approx((o_end - o_start) / 1e9, abs=1e-9)
    assert 0 <= agg["unaccounted_s"] < (end - start) / 1e9


def test_tracer_wraps_every_import_site():
    import starklab.pseudolattice as pl
    import starklab.stark as st
    import starklab.theta as th

    Tracer().install()
    assert st.coset_slice_reps is pl.coset_slice_reps is th.coset_slice_reps
    assert st.coset_slice_reps.__wrapped__.__name__ == "coset_slice_reps"
