"""The machine's speed beside each timed interval.

The shared 2-core machine the benchmark was sized on runs in phases of
minutes: in a slow phase every piece of pure-Python code, starklab's and a
fixed loop's alike, takes 1.6 to 1.9 times as long as in a fast one, and CPU
time slows with wall time, so the slowdown is not time spent descheduled.  A
38 s run usually falls inside one phase, so raw times swing between runs by
more than any change the benchmark should detect.

`probe()` times a short fixed loop that does no starklab work, three times,
and returns the median.  The workload process runs it just before and just
after each op, `run.py` just before and just after each set-up launch, and
`at_reference_speed` rescales the interval by the probes beside it to the
speed at which the probe takes `REF_S`.  The speed changes within seconds as
well, so the probes must sit beside the interval: a median over a longer
window corrects less.  A change to starklab moves the interval and not the
probes, so it still shows.
"""

from __future__ import annotations

import time

ITERATIONS = 60_000
REPEATS = 3
# The probe's time in a fast phase of the machine the benchmark was sized
# on (Xeon, 2 vCPUs, Python 3.11.7).  Only a unit: it is the same on every
# commit, so it scales every run alike.
REF_S = 0.0052


def probe() -> float:
    """Median seconds of REPEATS runs of a fixed pure-Python loop."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(ITERATIONS):
            acc = (acc * 31 + i) % 1000003
        times.append(time.perf_counter() - t0)
    return sorted(times)[REPEATS // 2]


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time between probes that took `before` and `after`
    seconds, rescaled to the speed at which a probe takes REF_S."""
    return seconds * REF_S * 2 / (before + after)
