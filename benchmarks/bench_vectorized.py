"""Vectorized batch execution: two cells, two claims.

``covering_index_only``
    On the on-disk cost model with a small buffer pool, an index-only
    (covering) scan over a composite key answers a covered query **>= 2x
    cheaper** than the same plan forced to heap-fetch each match
    (``Planner(db, use_covering_scans=False)``), with identical rows.

``desc_topk_parity``
    ``ORDER BY margin DESC LIMIT k`` walks the ``prev_leaf`` chain backwards
    and must cost **within 1.5x** of the ascending top-k over the same
    index — descending reads early-exit too, they are not a sort in disguise.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.bench.reporting import format_table  # noqa: E402
from repro.db.costmodel import CostModel  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.sql.parser import parse  # noqa: E402
from repro.db.sql.planner import Planner  # noqa: E402

ROWS = 4000
STATIONS = 50
TOP_K = 10
MIN_SPEEDUP = 2.0
MAX_DESC_RATIO = 1.5
SEED = 29


def _populate(db: Database) -> None:
    rng = random.Random(SEED)
    db.execute(
        "CREATE TABLE readings (id integer PRIMARY KEY, margin float, station integer)"
    )
    db.executemany(
        "INSERT INTO readings (id, margin, station) VALUES (?, ?, ?)",
        [
            (i, round(rng.uniform(0.0, 1.0), 2), rng.randrange(STATIONS))
            for i in range(ROWS)
        ],
    )


def _canonical(rows: list) -> list:
    return sorted(tuple(sorted(row.items())) for row in rows)


def _cell(name: str, baseline_s: float, measured_s: float, kind: str,
          gate: float, identical: bool) -> dict:
    ratio = (
        baseline_s / measured_s if kind == "min_speedup" and measured_s > 0
        else measured_s / baseline_s if kind == "max_ratio" and baseline_s > 0
        else float("inf")
    )
    return {
        "cell": name,
        "baseline_s": round(baseline_s, 9),
        "measured_s": round(measured_s, 9),
        "ratio": round(ratio, 2),
        "kind": kind,
        "gate": gate,
        "identical": int(identical),
    }


def covering_cell() -> dict:
    """Index-only scan vs the same probe forced to heap-fetch every match."""
    db = Database(cost_model=CostModel(), buffer_pool_pages=4)
    _populate(db)
    db.execute("CREATE INDEX idx_sm ON readings (station, margin)")
    # A covered full-prefix equality: both selected columns live in the key.
    target = db.execute(
        "SELECT station, margin FROM readings WHERE id = 17"
    ).rows[0]
    sql = (
        "SELECT station, margin FROM readings "
        f"WHERE station = {target['station']} AND margin = {target['margin']}"
    )
    statement = parse(sql)
    # Cycle the 4-page pool so the target's heap page is no longer resident —
    # the heap-fetching baseline must actually pay its random page reads.
    db.execute("SELECT COUNT(*) FROM readings")

    covering_plan = Planner(db).plan_select(statement)
    covering_leaf = covering_plan.explain_rows()[-1]["node"].strip()
    assert "covering" in covering_leaf, (
        f"planner did not choose the index-only scan: {covering_leaf}"
    )
    heap_plan = Planner(db, use_covering_scans=False).plan_select(statement)
    heap_leaf = heap_plan.explain_rows()[-1]["node"].strip()
    assert heap_leaf.startswith("SecondaryIndexRange") and "covering" not in heap_leaf, (
        f"baseline must be the heap-fetching index read: {heap_leaf}"
    )

    start = db.stats.simulated_seconds
    covered_rows, _ = covering_plan.run(db, [], None)
    covering_s = db.stats.simulated_seconds - start
    start = db.stats.simulated_seconds
    heap_rows, _ = heap_plan.run(db, [], None)
    heap_s = db.stats.simulated_seconds - start

    assert covered_rows, "covered query returned no rows; pick a live key"
    identical = _canonical(covered_rows) == _canonical(heap_rows)
    return _cell(
        "covering_index_only", heap_s, covering_s, "min_speedup", MIN_SPEEDUP,
        identical,
    )


def desc_parity_cell() -> dict:
    """Descending fused top-k must track the ascending walk's cost."""
    db = Database(cost_model=CostModel.main_memory())
    _populate(db)
    db.execute("CREATE INDEX idx_margin ON readings (margin)")
    costs = {}
    for direction in ("ASC", "DESC"):
        sql = f"SELECT id, margin FROM readings ORDER BY margin {direction} LIMIT {TOP_K}"
        leaf = db.execute(f"EXPLAIN {sql}").rows[-1]["node"].strip()
        assert f"order=margin {direction.lower()}" in leaf, (
            f"{direction} top-k is not index-ordered: {leaf}"
        )
        start = db.stats.simulated_seconds
        rows = db.execute(sql).rows
        costs[direction] = db.stats.simulated_seconds - start
        # Cross-check the walk against the forced-SeqScan reference answer.
        reference_plan = Planner(db, use_index_paths=False).plan_select(parse(sql))
        reference, _ = reference_plan.run(db, [], None)
        assert [r["margin"] for r in rows] == [r["margin"] for r in reference], (
            f"{direction} fused walk disagrees with the scan reference"
        )
    return _cell(
        "desc_topk_parity", costs["ASC"], costs["DESC"], "max_ratio",
        MAX_DESC_RATIO, True,
    )


def build_table() -> list[dict]:
    return [covering_cell(), desc_parity_cell()]


def test_vectorized_gate(benchmark):
    """Covering >= 2x cheaper than heap-fetching, DESC top-k within 1.5x of
    ASC — identical answers throughout."""
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Vectorized batch execution"))
    for row in rows:
        assert row["identical"] == 1, f"{row['cell']}: answers differ"
        if row["kind"] == "min_speedup":
            assert row["ratio"] >= row["gate"], (
                f"{row['cell']}: speedup {row['ratio']}x is below the "
                f"{row['gate']}x gate"
            )
        else:
            assert row["ratio"] <= row["gate"], (
                f"{row['cell']}: ratio {row['ratio']}x exceeds the "
                f"{row['gate']}x ceiling"
            )
