"""The batched (vectorized) execution protocol and its planner surface.

Covers the chunk container itself, the ``covering=true`` EXPLAIN detail flag,
index-only (covering) scans, and the ``ORDER BY ... DESC LIMIT k`` fused walk
over the ``prev_leaf`` chain.  Golden-plan assertions pin the EXPLAIN text so
the flag cannot silently disappear.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql.parser import parse
from repro.db.sql.plan import Chunk, _rows_to_chunk
from repro.db.sql.planner import Planner


def _canonical(rows: list[dict]) -> list[tuple]:
    return sorted(tuple(sorted((k.lower(), repr(v)) for k, v in row.items())) for row in rows)


def make_db(cost_model: CostModel | None = None) -> Database:
    db = Database(cost_model=cost_model or CostModel.main_memory())
    db.execute("CREATE TABLE t (id integer PRIMARY KEY, a integer, b float, c text)")
    for i in range(300):
        db.execute(
            "INSERT INTO t (id, a, b, c) VALUES (?, ?, ?, ?)",
            (i, i % 7, float(i % 13) - 6.0, f"tag{i % 3}"),
        )
    return db


# ---------------------------------------------------------------------------
# Chunk container
# ---------------------------------------------------------------------------


class TestChunk:
    def test_columnar_round_trip_preserves_exact_values(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": None}, {"a": 3, "b": -1.0}]
        chunk = _rows_to_chunk(["a", "b"], iter(rows))
        assert chunk.length == 3
        assert chunk.to_rows() == rows

    def test_resolve_is_case_insensitive(self):
        chunk = Chunk.columnar(["Id", "Val"], {"Id": [1], "Val": [2]})
        assert chunk.resolve("id") == "Id"
        assert chunk.resolve("VAL") == "Val"
        assert chunk.resolve("missing") is None

    def test_numeric_view_only_for_safe_numerics(self):
        chunk = Chunk.columnar(
            ["f", "i", "s", "n", "big", "bo"],
            {
                "f": [1.0, 2.0],
                "i": [1, 2],
                "s": ["x", "y"],
                "n": [1.0, None],
                "big": [2**53 + 1, 0],
                "bo": [True, False],
            },
        )
        assert chunk.numeric("f") is not None
        assert chunk.numeric("i").dtype == np.float64
        # Strings, NULLs, over-2**53 ints, and bools must stay on the exact path.
        for name in ("s", "n", "big", "bo"):
            assert chunk.numeric(name) is None, name

    def test_filter_and_head(self):
        chunk = Chunk.columnar(["a"], {"a": [10, 20, 30, 40]})
        kept = chunk.filter(np.array([True, False, True, False]))
        assert kept.values("a") == [10, 30]
        assert chunk.head(2).values("a") == [10, 20]
        assert chunk.head(9) is chunk


# ---------------------------------------------------------------------------
# EXPLAIN detail flags (golden plans)
# ---------------------------------------------------------------------------


class TestExplainFlags:
    def test_seq_scan_detail_golden(self):
        db = make_db()
        detail = db.execute("EXPLAIN SELECT * FROM t").rows[-1]["detail"]
        pages = db.catalog.table("t").page_count()
        assert detail == f"sequential scan of {pages} pages / 300 tuples"

    def test_index_probe_detail_carries_flags(self):
        db = make_db()
        db.execute("CREATE INDEX idx_ab ON t (a, b)")
        rows = db.execute("EXPLAIN SELECT a, b FROM t WHERE a = 2 AND b >= 3.0").rows
        access = rows[-1]
        assert access["node"].strip() == (
            "SecondaryIndexRange(t.idx_ab: a = 2 AND b >= 3.0, covering)"
        )
        assert access["detail"].endswith("; covering=true")
        assert "index-only, no heap fetches" in access["detail"]

    def test_non_covering_probe_has_no_covering_flag(self):
        db = make_db()
        db.execute("CREATE INDEX idx_ab ON t (a, b)")
        access = db.execute("EXPLAIN SELECT * FROM t WHERE a = 2 AND b >= 3.0").rows[-1]
        assert "covering" not in access["node"]
        assert "covering=true" not in access["detail"]

    def test_desc_fused_walk_golden_plan(self):
        db = make_db()
        db.execute("CREATE INDEX idx_b ON t (b)")
        rows = db.execute("EXPLAIN SELECT * FROM t ORDER BY b DESC LIMIT 5").rows
        access = rows[-1]
        assert access["node"].strip() == (
            "SecondaryIndexRange(t.idx_b: unbounded, order=b desc, limit=5)"
        )
        assert "Sort/TopK elided" in access["detail"]
        # No Sort/TopK node anywhere in the fused plan.
        assert not any(r["node"].strip().startswith(("Sort", "TopK")) for r in rows)


# ---------------------------------------------------------------------------
# Covering (index-only) scans
# ---------------------------------------------------------------------------


class TestCoveringScans:
    def _db(self, **kwargs) -> Database:
        db = make_db(**kwargs)
        db.execute("CREATE INDEX idx_ab ON t (a, b)")
        return db

    def test_covering_scan_matches_seqscan_reference(self):
        db = self._db()
        sql = "SELECT a, b FROM t WHERE a = 4 AND b > -2.0"
        assert "covering" in db.execute(f"EXPLAIN {sql}").rows[-1]["node"]
        chosen = db.execute(sql).rows
        reference_plan = Planner(db, use_index_paths=False).plan_select(parse(sql))
        reference, _ = reference_plan.run(db, [], None)
        assert _canonical(chosen) == _canonical(reference)

    def test_heap_fetching_variant_matches_covering_variant(self):
        db = self._db()
        sql = "SELECT a, b FROM t WHERE a = 4 AND b > -2.0"
        covering_rows = db.execute(sql).rows
        heap_plan = Planner(db, use_covering_scans=False).plan_select(parse(sql))
        labels = [r["node"].strip() for r in heap_plan.explain_rows()]
        assert any(
            l.startswith("SecondaryIndexRange") and "covering" not in l for l in labels
        ), labels
        heap_rows, _ = heap_plan.run(db, [], None)
        assert _canonical(covering_rows) == _canonical(heap_rows)

    def test_covering_changes_the_costed_plan_choice(self):
        # On disk, every heap fetch is a random page read, so the heap-fetching
        # index variant loses to SeqScan here — but the covering variant skips
        # the fetches entirely and wins.  Same query, three different costs.
        db = self._db(cost_model=CostModel())
        sql = "SELECT a, b FROM t WHERE a = 4 AND b > -2.0"
        statement = parse(sql)
        covering_row = Planner(db).plan_select(statement).explain_rows()[-1]
        assert "covering" in covering_row["node"]
        heap_row = Planner(db, use_covering_scans=False).plan_select(statement).explain_rows()[-1]
        assert heap_row["node"].strip().startswith("SeqScan"), heap_row
        assert covering_row["estimated_seconds"] < heap_row["estimated_seconds"]

    def test_star_select_never_covers(self):
        db = self._db()
        access = db.execute("EXPLAIN SELECT * FROM t WHERE a = 4 AND b > 0.0").rows[-1]
        assert "covering" not in access["node"]  # c/id not in the index key

    def test_predicate_only_columns_still_allow_covering(self):
        # SELECT a WHERE a=.. AND b=..: b appears only in WHERE but is in the key.
        db = self._db()
        sql = "SELECT a FROM t WHERE a = 4 AND b = 0.0"
        access = db.execute(f"EXPLAIN {sql}").rows[-1]
        assert "covering" in access["node"]
        reference_plan = Planner(db, use_index_paths=False).plan_select(parse(sql))
        reference, _ = reference_plan.run(db, [], None)
        assert _canonical(db.execute(sql).rows) == _canonical(reference)

    def test_covering_with_nulls_falls_back_correctly(self):
        db = self._db()
        db.execute("INSERT INTO t (id, a, b, c) VALUES (900, 4, NULL, 'x')")
        db.execute("INSERT INTO t (id, a, b, c) VALUES (901, NULL, 1.0, 'y')")
        sql = "SELECT a, b FROM t WHERE a = 4 AND b > -100.0"
        chosen = db.execute(sql).rows
        reference_plan = Planner(db, use_index_paths=False).plan_select(parse(sql))
        reference, _ = reference_plan.run(db, [], None)
        assert _canonical(chosen) == _canonical(reference)

    def test_covering_ordered_walk(self):
        db = self._db()
        sql = "SELECT a, b FROM t WHERE a = 3 ORDER BY a LIMIT 4"
        access = db.execute(f"EXPLAIN {sql}").rows[-1]
        assert "covering" in access["node"]
        assert "no heap fetches" in access["detail"]
        chosen = db.execute(sql).rows
        reference_plan = Planner(db, use_index_paths=False).plan_select(parse(sql))
        reference, _ = reference_plan.run(db, [], None)
        # Every row ties on the order column, so compare the order-column
        # sequence and check containment in the unlimited reference answer.
        assert [r["a"] for r in chosen] == [r["a"] for r in reference]
        unlimited_plan = Planner(db, use_index_paths=False).plan_select(
            parse("SELECT a, b FROM t WHERE a = 3 ORDER BY a")
        )
        unlimited, _ = unlimited_plan.run(db, [], None)
        pool = _canonical(unlimited)
        for row in _canonical(chosen):
            assert row in pool


# ---------------------------------------------------------------------------
# DESC fused top-k over the prev_leaf chain
# ---------------------------------------------------------------------------


class TestDescendingFusedTopK:
    def _db(self) -> Database:
        db = make_db()
        db.execute("CREATE INDEX idx_b ON t (b)")
        return db

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_fused_walk_matches_reference(self, direction):
        db = self._db()
        sql = f"SELECT * FROM t ORDER BY b {direction} LIMIT 9"
        access = db.execute(f"EXPLAIN {sql}").rows[-1]["node"].strip()
        assert access.startswith("SecondaryIndexRange"), access
        assert f"order=b {direction.lower()}" in access
        chosen = db.execute(sql).rows
        reference_plan = Planner(db, use_index_paths=False).plan_select(parse(sql))
        reference, _ = reference_plan.run(db, [], None)
        assert [r["b"] for r in chosen] == [r["b"] for r in reference]

    def test_desc_estimate_symmetric_with_asc(self):
        db = self._db()
        asc = parse("SELECT * FROM t ORDER BY b ASC LIMIT 9")
        desc = parse("SELECT * FROM t ORDER BY b DESC LIMIT 9")
        planner = Planner(db)
        asc_cost = planner.plan_select(asc).root.estimated_seconds
        desc_cost = planner.plan_select(desc).root.estimated_seconds
        assert desc_cost == pytest.approx(asc_cost)

    def test_composite_desc_with_pinned_prefix(self):
        db = make_db()
        db.execute("CREATE INDEX idx_ab ON t (a, b)")
        sql = "SELECT * FROM t WHERE a = 5 ORDER BY b DESC LIMIT 6"
        access = db.execute(f"EXPLAIN {sql}").rows[-1]["node"].strip()
        assert access.startswith("SecondaryIndexRange"), access
        assert "order=b desc" in access
        chosen = db.execute(sql).rows
        reference_plan = Planner(db, use_index_paths=False).plan_select(parse(sql))
        reference, _ = reference_plan.run(db, [], None)
        assert [r["b"] for r in chosen] == [r["b"] for r in reference]
