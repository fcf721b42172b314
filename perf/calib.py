"""Calibration kernel: a fixed pure-Python loop timed beside every segment.

The sandbox's speed drifts by tens of percent for 10-20 s stretches, so a
raw latency says as much about the moment it was taken as about the code.
Every timed segment is bracketed by :func:`sample` and its latencies are
multiplied by ``REF_US / mean(before, after)``: they become "time at
reference speed".  This module never imports ``repro`` — a change to the
program cannot move the yardstick.
"""

from __future__ import annotations

import statistics
import time

#: The kernel's duration, in microseconds, at reference speed: its median on
#: this sandbox when the benchmark was written.  A constant, so calibrated
#: numbers from different commits and different days share one unit.
REF_US = 200.0

#: Kernel timings per calibration sample.  The sample is their median: a
#: median of short runs is inflated by time-slicing no more than a 40 us
#: point read is, where one long run would absorb every preemption.
KERNEL_RUNS = 15

_KERNEL_STEPS = 1700


def kernel() -> int:
    """Integer and dict work shaped like the interpreter paths the program uses."""
    table: dict[int, int] = {}
    total = 0
    for step in range(_KERNEL_STEPS):
        key = (step * 7919) & 127
        total += table.get(key, step)
        table[key] = total & 0xFFFF
    return total


def sample() -> float:
    """One calibration sample: the median of ``KERNEL_RUNS`` kernel timings, in us."""
    timings = []
    for _ in range(KERNEL_RUNS):
        started = time.perf_counter_ns()
        kernel()
        timings.append(time.perf_counter_ns() - started)
    return statistics.median(timings) / 1000.0


def factor(before_us: float, after_us: float) -> float:
    """Multiplier taking a latency measured between two samples to reference speed."""
    return REF_US / ((before_us + after_us) / 2.0)
