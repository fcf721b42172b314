"""Figure 6(B): Single Entity read rate vs hybrid buffer size, for models with
different fractions of tuples inside the water band (S1 / S10 / S50).

The paper varies the hybrid's buffer from 0.5% to 100% of the entities under
three models that leave 1%, 10% and 50% of the tuples between low and high
water, and shows that once the buffer covers the in-band tuples the read rate
approaches the main-memory architecture.

The reproduction constructs the S-fraction models directly: after warming a
model, the water band is widened artificially until the requested fraction of
tuples falls inside it, then the buffer sweep is run.
"""

from __future__ import annotations

from repro.bench.harness import build_maintained_view
from repro.bench.reporting import format_table
from repro.core.bounds import WaterBand
from repro.workloads import read_trace, update_trace

BUFFER_FRACTIONS = (0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
BAND_FRACTIONS = {"S1": 0.01, "S10": 0.10, "S50": 0.50}


def _force_band_fraction(view, fraction: float) -> None:
    """Widen the maintainer's water band until ``fraction`` of tuples fall inside it."""
    store = view.maintainer.store
    eps_values = sorted(record.eps for record in store.scan_all())
    count = len(eps_values)
    inside = max(1, int(fraction * count))
    center = count // 2
    low_index = max(0, center - inside // 2)
    high_index = min(count - 1, low_index + inside - 1)
    view.maintainer.tracker._band = WaterBand(eps_values[low_index], eps_values[high_index])


def build_table(dataset, reads: int = 1500):
    trace = update_trace(dataset, warmup=400, timed=0, seed=4)
    ids = read_trace(dataset, reads, seed=6)
    rows = []
    for band_name, band_fraction in BAND_FRACTIONS.items():
        for buffer_fraction in BUFFER_FRACTIONS:
            view = build_maintained_view(
                dataset,
                "hybrid",
                "hazy",
                "lazy",
                buffer_fraction=buffer_fraction,
                warm_examples=trace.warm_examples(),
            )
            _force_band_fraction(view, band_fraction)
            store = view.store
            start = store.cost_snapshot()
            for entity_id in ids:
                view.maintainer.read_single(entity_id)
            simulated = store.cost_snapshot() - start
            rows.append(
                {
                    "band_model": band_name,
                    "buffer_pct": round(buffer_fraction * 100, 1),
                    "reads_per_s": round(reads / max(simulated, 1e-12), 0),
                    "epsmap_hits": view.maintainer.stats.epsmap_hits,
                    "disk_lookups": view.store.disk_served,
                }
            )
    return rows


def test_fig6b_buffer_sweep(citeseer_dataset, benchmark):
    rows = benchmark.pedantic(lambda: build_table(citeseer_dataset), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Figure 6(B): Single Entity reads/s vs hybrid buffer size (CS-like)"))
    by_cell = {(row["band_model"], row["buffer_pct"]): row for row in rows}

    # With a 1% band (S1), even the smallest buffer approaches the big-buffer rate.
    s1_small = by_cell[("S1", 0.5)]["reads_per_s"]
    s1_large = by_cell[("S1", 100.0)]["reads_per_s"]
    assert s1_small >= 0.5 * s1_large

    # With a 50% band (S50), a small buffer is much slower than a full buffer —
    # the curve of the paper's Figure 6(B).
    s50_small = by_cell[("S50", 0.5)]["reads_per_s"]
    s50_large = by_cell[("S50", 100.0)]["reads_per_s"]
    assert s50_small < s50_large

    # For every band model, the read rate is monotone (within tolerance) in the
    # buffer size once the buffer exceeds the band.
    for band_name in BAND_FRACTIONS:
        small = by_cell[(band_name, 0.5)]["reads_per_s"]
        large = by_cell[(band_name, 100.0)]["reads_per_s"]
        assert large >= small * 0.99
