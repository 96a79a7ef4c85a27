"""Reference timings of the host, by which the benchmark scales its times.

The benchmark runs on a shared host whose speed swings by up to 1.6x in
phases lasting from seconds to minutes.  Each measured time is divided by a
fixed reference piece of work timed right before and right after it, so the
reference runs at the speed the measured work ran at, and multiplied by the
reference's nominal time.  The result reads in reference seconds: the time
the work would take when the reference takes its nominal time.  Neither
reference calls coxwalk, so a change to the package moves only the measured
time.

- The reference loop (loop_time, LOOP_S) scales every evaluation; it is
  timed in the worker between evaluations.  It adds Fractions, the
  Python-level arithmetic that dominates the exact engines; of the loops
  tried, it tracked the host's phases most closely (a pair-engine cell's
  time over it held within 3% across 10 s windows in which the cell's own
  time moved 8%).  Collection is off while it runs, so the size of the heap
  the evaluations left behind does not change its time.
- The reference start (start_time, START_S) scales every set-up: a fresh
  interpreter that imports numpy and exits, the same kind of work as set-up
  (process start, dynamic loading, unmarshalling modules), which the loop
  tracks worse than plain set-up time does.

The nominal times are about the references' medians on a 2-vCPU Xeon under
Python 3.11.7 and numpy 2.4.6; they only set the scale of the figures.
"""
from __future__ import annotations

import gc
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

LOOP_S = 0.0013
START_S = 0.16


def _loop() -> Fraction:
    total, seen = Fraction(0), {}
    for i in range(1, 250):
        total += Fraction(i, i * i + 1)
        seen[i & 63] = total.denominator & 0xFFFF
    return total


def loop_time() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def start_time() -> float:
    """Seconds a fresh interpreter takes now to import numpy and exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, timeout=60)
    return perf_counter() - t0
