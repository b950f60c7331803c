"""Host-speed probe: a short fixed reference loop timed throughout a run.

The benchmark runs on shared machines whose speed changes by tens of percent
from one millisecond to the next and between runs, while a run lasts seconds.
Every timing the untraced run reports is therefore scaled to a reference
speed, the speed at which the probe takes ``REF_NS``:

* a query by ``REF_NS / t`` for the time ``t`` of the probe run just before
  its group of queries (run.py);
* a set-up or build repeat by the mean of ``REF_NS / t`` over probes run
  every TICK_S while it runs (``timed``). An interval timer interrupts the
  phase for them, so they sample its whole length evenly, and the mean of a
  speed sampled evenly in time is the phase's average speed. The probes'
  own time is taken out of the phase's time.

A run on a host where the probe takes ``REF_NS`` reports its raw times
unchanged; the raw times are kept in the run record as well.

The probe is benchmark code doing the same kind of work as the program
(tuple-keyed dict stores and loads, tuple unpacking, integer arithmetic,
list slicing and comparison), so a program change cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_NS = 37_500           # probe time, in ns, that defines the reference speed
TICK_S = 0.01             # probing interval while a set-up or build runs
PROBES_PER_TICK = 3
TRIM = 0.1                # share of the slowest and of the fastest probes dropped

_now = time.perf_counter_ns


def _reference_work():
    table = {}
    for i in range(100):
        table[(i, i & 7)] = (i * 3, i >> 1)
    total = 0
    for i in range(100):
        a, b = table[(i, i & 7)]
        total += a - b
    row = list(range(64))
    for j in range(0, 14, 2):
        total += row[j:j + 32] == row[j + 1:j + 33]
    return total


def probe_ns():
    """Time one run of the reference loop."""
    t0 = _now()
    _reference_work()
    return _now() - t0


def timed(fn):
    """Run fn() while probing every TICK_S; (reference ns, raw ns, result).

    The raw time excludes the probes. A phase too short for a tick is
    scaled by probes run right after it.
    """
    speeds, stolen = [], [0]

    def tick(signum, frame):
        t0 = _now()
        for _ in range(PROBES_PER_TICK):
            speeds.append(REF_NS / probe_ns())
        stolen[0] += _now() - t0

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        t0 = _now()
        result = fn()
        elapsed = _now() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    raw = elapsed - stolen[0]
    if not speeds:
        speeds = [REF_NS / probe_ns() for _ in range(PROBES_PER_TICK)]
    speeds.sort()
    cut = int(len(speeds) * TRIM)
    return raw * statistics.fmean(speeds[cut:len(speeds) - cut]), raw, result
