"""The estimator against synthetic latency series with known disturbances."""

import random
import statistics

from perf import calib
from perf.estimator import Series, spread, throughput

BLOCKS = 100
PER_SEGMENT = 12
BASE_S = 100e-6


def synthetic(slow_blocks: range, seed: int = 7) -> Series:
    """A series whose machine runs 1.4x slow over ``slow_blocks``.

    Every fourth op or so lands in a second mode twice as slow (the handler
    thread woke on the other CPU); the calibration kernel slows with the
    machine, as the real one does.
    """
    rng = random.Random(seed)
    series = Series()

    def speed(block: int) -> float:
        return 1.4 if block in slow_blocks else 1.0

    def sample(block: int) -> float:
        return calib.REF_US * speed(block) * rng.uniform(0.99, 1.01)

    before = sample(0)
    for block in range(BLOCKS):
        latencies = [
            BASE_S * speed(block) * rng.uniform(0.98, 1.02) * (2.0 if rng.random() < 0.25 else 1.0)
            for _ in range(PER_SEGMENT)
        ]
        after = sample(block)
        series.add(latencies, before, after)
        before = after
    return series


def test_calibrated_block_median_ignores_a_speed_shift_the_raw_median_follows():
    steady = synthetic(range(0))
    shifted = synthetic(range(30, 70))  # 40% of the blocks
    calibrated_move = abs(shifted.calibrated() / steady.calibrated() - 1.0)
    raw_move = abs(shifted.raw() / steady.raw() - 1.0)
    assert calibrated_move < 0.03, calibrated_move
    assert raw_move > 0.15, raw_move
    assert abs(steady.calibrated() / BASE_S - 1.0) < 0.03


def test_throughput_is_calibrated_too():
    steady = synthetic(range(0))
    shifted = synthetic(range(30, 70))
    assert abs(throughput([shifted]) / throughput([steady]) - 1.0) < 0.03
    assert steady.ops() == BLOCKS * PER_SEGMENT


def test_a_bimodal_segment_does_not_move_the_segment_median():
    series = Series()
    series.add([BASE_S] * 9 + [2 * BASE_S] * 3, calib.REF_US, calib.REF_US)
    assert series.calibrated() == BASE_S


def test_failed_segments_are_skipped_and_percentiles_see_spikes():
    series = Series()
    series.add([], calib.REF_US, calib.REF_US)
    assert series.segments == []
    for _ in range(20):
        series.add([BASE_S] * 11 + [50 * BASE_S], calib.REF_US, calib.REF_US)
    assert series.calibrated() == BASE_S
    assert series.calibrated_percentile(99) == 50 * BASE_S


def test_spread_is_the_quartile_distance_over_the_median():
    values = [float(v) for v in range(1, 12)]
    quartiles = statistics.quantiles(values, n=4)
    assert spread(values) == (quartiles[2] - quartiles[0]) / quartiles[1]
