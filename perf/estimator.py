"""Block-median estimator: from per-op latencies to one number that repeats.

A timed phase is B blocks; a block holds one *segment* per op kind; a
segment is a handful of back-to-back ops of that kind, bracketed by two
calibration samples.  The estimator works in three steps:

1. a segment's value is the **median** of its per-op latencies (one
   preempted op out of twelve does not move it);
2. that value is **calibrated**: multiplied by
   ``REF_US / mean(sample before, sample after)``, so a segment that ran
   while the machine was 1.4x slow reads the same as one that did not;
3. the metric is the **median over blocks** of the calibrated segment
   values (a stretch of bad blocks — up to half of them — does not move it).

Throughput uses the same calibrated segments: ops divided by the sum of
calibrated segment time.  Pure functions on plain lists; ``repro`` is never
imported here.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from perf import calib


@dataclass
class Segment:
    """One op kind's run inside one block: latencies (seconds) and its bracket."""

    latencies: list[float]
    calib_before_us: float
    calib_after_us: float

    @property
    def factor(self) -> float:
        return calib.factor(self.calib_before_us, self.calib_after_us)

    @property
    def raw_median(self) -> float:
        return statistics.median(self.latencies)

    @property
    def calibrated_median(self) -> float:
        return self.raw_median * self.factor

    @property
    def calibrated_total(self) -> float:
        return sum(self.latencies) * self.factor


@dataclass
class Series:
    """Every segment of one op kind, in block order."""

    segments: list[Segment] = field(default_factory=list)

    def add(self, latencies: list[float], before_us: float, after_us: float) -> None:
        """Record one block's segment; a segment whose ops all failed has no value."""
        if latencies:
            self.segments.append(Segment(latencies, before_us, after_us))

    def ops(self) -> int:
        return sum(len(segment.latencies) for segment in self.segments)

    def calibrated(self) -> float:
        """The metric: median over blocks of the calibrated segment medians."""
        return statistics.median(segment.calibrated_median for segment in self.segments)

    def raw(self) -> float:
        """Diagnostic: the plain median of every latency, no blocks, no calibration."""
        return statistics.median(
            latency for segment in self.segments for latency in segment.latencies
        )

    def calibrated_percentile(self, percent: float) -> float:
        """A high percentile of the calibrated latencies (spikes a median hides)."""
        values = sorted(
            latency * segment.factor
            for segment in self.segments
            for latency in segment.latencies
        )
        return values[min(len(values) - 1, int(len(values) * percent / 100.0))]

    def calibrated_total(self) -> float:
        return sum(segment.calibrated_total for segment in self.segments)


def throughput(series: list[Series]) -> float:
    """Ops per second at reference speed: ops / sum of calibrated segment time."""
    total = sum(one.calibrated_total() for one in series)
    return sum(one.ops() for one in series) / total


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's steadiness test)."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / quartiles[1]
