"""starklab benchmark: one workload, one seed, one result.

Usage, from the repository root:

    python3 bench/run.py --workload stark --seed 1 --seconds 38 --trace 0

With --trace 0 it launches the workload process several times to set up
only, then once to run the closed loop for the whole rounds that fit in
--seconds, and prints the end-to-end metrics.  With --trace 1 it runs
TRACE_ROUNDS rounds of the workload untraced and the same rounds traced,
each in a fresh process, and prints the per-layer metrics with the tracing
overhead.  The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}.

Times are rescaled to a reference machine speed by the probes of speed.py,
which run beside every op and every set-up launch; the notes line gives the
raw times too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("stark", "checks", "classes")
SETUP_PROBES = 8        # set-up-only launches, plus the measured run's own
TIME_LIMIT_S = 170.0    # the whole invocation, all processes included
CALIB_ITERATIONS = 3_000_000
PERCENTILES = (50, 90, 99, 99.9)
UNACCOUNTED_FRAC = 0.01  # op wall time the root spans of a traced run may miss
TRACE_ROUNDS = 2         # both pairs of `stark`, which alternate by round


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: identifies unsteady runs; never
    used to rescale a metric."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += i
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


class Launcher:
    """Starts workload processes one at a time and waits for each."""

    def __init__(self, workload: str, seed: int):
        self.base = [sys.executable, "-B", str(HERE / "workload.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def run(self, *extra: str):
        """Returns (output dict, set-up seconds from launch to ready, the
        same at reference speed)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the run finished")
        before = speed.probe()
        launched = time.monotonic()
        try:
            proc = subprocess.run(self.base + list(extra), cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("workload process exceeded the time limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("workload process exited with code %d" % proc.returncode)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(out["starklab_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError("starklab imported from %s, not from this checkout"
                             % out["starklab_file"])
        self.last = out
        setup = out["ready"] - launched
        return out, setup, speed.at_reference_speed(setup, before, speed.probe())


def op_seconds(ops) -> list[float]:
    return [(r["end_ns"] - r["start_ns"]) / 1e9 for r in ops]


def scaled_op_seconds(ops) -> list[float]:
    """Each op's time at reference speed, by the probes just before and
    just after it."""
    return [speed.at_reference_speed(t, *r["probe_s"])
            for t, r in zip(op_seconds(ops), ops)]


def highest_percentile(n: int):
    """The highest of PERCENTILES with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def time_figures(ops, times) -> dict:
    """ops_per_s, round_s.p50 and op_s.p50 of one run from its op times."""
    # A round is the workload's whole input mix.  Its median time does not
    # jump between the cost levels of different op kinds as the median op
    # time does, so it is the gated figure and op_s.p50 is a note.
    round_s = {}
    for r, t in zip(ops, times):
        round_s[r["round"]] = round_s.get(r["round"], 0.0) + t
    return {
        "ops_per_s": sum(r["ok"] for r in ops) / sum(times),
        "round_s.p50": statistics.median(round_s.values()),
        "op_s.p50": statistics.median(times),
    }


def run_untraced(launcher: Launcher, seconds: float):
    # Half the set-up probes run before the measured run and half after, so
    # that their median samples the machine over the whole run.
    def probes(n):
        return [launcher.run("--setup-only")[1:] for _ in range(n)]

    setups = probes(SETUP_PROBES // 2)
    out, wall, scaled = launcher.run("--seconds", str(seconds))
    setups += [(wall, scaled)] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    ops = out["ops"]
    times = scaled_op_seconds(ops)
    good = sum(r["ok"] for r in ops)
    figures = time_figures(ops, times)
    raw = time_figures(ops, op_seconds(ops))
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "ops_per_s": figures["ops_per_s"],
        "round_s.p50": figures["round_s.p50"],
        "peak_rss_mb": out["peak_rss_kb"] / 1024,
    }
    raw["setup_s"] = statistics.median(wall for wall, _ in setups)
    p = highest_percentile(len(times))
    notes = {
        "ops": len(ops),
        "rounds": len({r["round"] for r in ops}),
        "op_s.p50": figures["op_s.p50"],
        "setup_samples_s": [scaled for _, scaled in setups],
        "fail_frac": (len(ops) - good) / len(ops),
        "highest_percentile": None if p is None else {
            "p": p, "op_s": sorted(times)[math.ceil(p / 100 * len(times)) - 1]},
        "raw": raw,
        "probe_s.p50": statistics.median(p for r in ops for p in r["probe_s"]),
        "failed_ops": [r for r in ops if not r["ok"]],
    }
    return ops, good == len(ops), metrics, notes


def run_traced(launcher: Launcher, workload: str, seed: int, names):
    rounds = str(TRACE_ROUNDS)
    plain = launcher.run("--rounds", rounds)[0]
    spans_path = BUILD / "spans" / ("%s-seed%d.jsonl" % (workload, seed))
    traced = launcher.run("--rounds", rounds, "--spans", str(spans_path))[0]
    layers = traced["layers"]
    untraced_wall = sum(op_seconds(plain["ops"]))
    # The two processes may run at different machine speeds, so the
    # overhead compares their op times at reference speed.
    untraced_scaled = sum(scaled_op_seconds(plain["ops"]))
    overhead_s = sum(scaled_op_seconds(traced["ops"])) - untraced_scaled
    same = ([(r["key"], r["result"]) for r in plain["ops"]]
            == [(r["key"], r["result"]) for r in traced["ops"]])
    # The root spans must cover the ops' wall time to within 1%.
    accounted = layers["unaccounted_s"] <= UNACCOUNTED_FRAC * layers["wall_s"]
    trace_values = {
        "trace.overhead_pct": 100 * overhead_s / untraced_scaled,
        "trace.wall_s": layers["wall_s"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.unaccounted_s": layers["unaccounted_s"],
        "trace.spans": layers["spans"],
    }
    metrics = {}
    for name in names:
        if name in trace_values:
            metrics[name] = trace_values[name]
        elif name.endswith(".self_s") and name[:-len(".self_s")] in layers["layers"]:
            metrics[name] = layers["layers"][name[:-len(".self_s")]]
        else:
            function, field = name.rsplit(".", 1)
            metrics[name] = layers["functions"].get(function, {}).get(field, 0)
    ops = plain["ops"] + traced["ops"]
    notes = {"results_match": same, "spans_account_for_wall": accounted,
             "spans_file": str(spans_path.relative_to(ROOT)),
             "failed_ops": [r for r in ops if not r["ok"]]}
    ok = same and accounted and all(r["ok"] for r in ops)
    return ops, ok, metrics, notes


def machine_facts(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "starklab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="starklab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "starklab" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench/run.py: no starklab source tree or BENCHMARK.json under %s"
              % ROOT, file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    facts = machine_facts(args.seed)
    facts["calib_s_before"] = calibrate()
    launcher = Launcher(args.workload, args.seed)
    try:
        if args.trace:
            ops, correct, values, notes = run_traced(
                launcher, args.workload, args.seed, [m["name"] for m in declared])
        else:
            ops, correct, values, notes = run_untraced(launcher, args.seconds)
    except BenchError as exc:
        print("bench/run.py: %s" % exc, file=sys.stderr)
        return 3
    facts["calib_s_after"] = calibrate()
    facts["speed_probe_ref_s"] = speed.REF_S
    facts.update(launcher.last["versions"])

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for m in declared:
        better = m["better"] + " is better" if "better" in m else ""
        print("  %-42s %14.6g %-6s %s" % (m["name"], values[m["name"]], m["unit"], better))
    print("facts " + json.dumps(facts))
    print("notes " + json.dumps(notes))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = sum(not r["ok"] for r in ops)
    print(json.dumps({"correct": bool(correct), "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
