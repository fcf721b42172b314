"""Unit tests for the B+-tree and hash index."""

from __future__ import annotations

import random

import pytest

from repro.db.btree import BPlusTree
from repro.db.hash_index import HashIndex
from repro.db.page import RecordId
from repro.db.types import KeyRange
from repro.exceptions import DatabaseError, DuplicateKeyError, KeyNotFoundError


class TestBPlusTreeBasics:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.search(1.0) == []
        assert tree.min_key() is None
        assert tree.max_key() is None
        assert list(tree.items()) == []

    def test_invalid_order(self):
        with pytest.raises(DatabaseError):
            BPlusTree(order=2)

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert(1.5, "a")
        tree.insert(-2.0, "b")
        assert tree.search(1.5) == ["a"]
        assert tree.search(-2.0) == ["b"]
        assert tree.search(0.0) == []
        assert len(tree) == 2

    def test_duplicate_keys_supported(self):
        tree = BPlusTree(order=4)
        tree.insert(1.0, "a")
        tree.insert(1.0, "b")
        assert sorted(tree.search(1.0)) == ["a", "b"]
        assert len(tree) == 2

    def test_min_and_max_keys(self):
        tree = BPlusTree(order=4)
        for value in [5.0, -1.0, 3.0, 10.0]:
            tree.insert(value, value)
        assert tree.min_key() == -1.0
        assert tree.max_key() == 10.0

    def test_min_and_max_keys_skip_leaves_emptied_by_deletes(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        for key in [*range(20), *range(90, 100)]:
            assert tree.delete(key, key)
        assert tree.min_key() == 20.0
        assert tree.max_key() == 89.0
        for key in range(20, 90):
            tree.delete(key, key)
        assert len(tree) == 0
        assert tree.min_key() is None and tree.max_key() is None

    def test_split_keeps_items_sorted(self):
        tree = BPlusTree(order=4)
        values = list(range(100))
        random.Random(0).shuffle(values)
        for value in values:
            tree.insert(float(value), value)
        keys = [key for key, _ in tree.items()]
        assert keys == sorted(keys)
        assert len(tree) == 100
        assert tree.height > 1
        tree.check_invariants()

    def test_delete_single_occurrence(self):
        tree = BPlusTree(order=4)
        tree.insert(1.0, "a")
        tree.insert(1.0, "b")
        assert tree.delete(1.0, "a")
        assert tree.search(1.0) == ["b"]
        assert len(tree) == 1

    def test_delete_missing_returns_false(self):
        tree = BPlusTree(order=4)
        tree.insert(1.0, "a")
        assert not tree.delete(2.0, "a")
        assert not tree.delete(1.0, "missing")

    def test_clear(self):
        tree = BPlusTree(order=4)
        tree.insert(1.0, "a")
        tree.clear()
        assert len(tree) == 0
        assert tree.height == 1

    def test_bulk_load(self):
        tree = BPlusTree.bulk_load([(float(i), i) for i in range(50)], order=8)
        assert len(tree) == 50
        tree.check_invariants()


class TestBPlusTreeRangeScans:
    def _build(self, count: int = 200, order: int = 8) -> BPlusTree:
        tree = BPlusTree(order=order)
        values = list(range(count))
        random.Random(1).shuffle(values)
        for value in values:
            tree.insert(float(value), value)
        return tree

    def test_range_scan_inclusive_bounds(self):
        tree = self._build()
        result = [payload for _, payload in tree.range_scan(10.0, 20.0)]
        assert result == list(range(10, 21))

    def test_range_scan_unbounded_low(self):
        tree = self._build(50)
        result = [payload for _, payload in tree.range_scan(None, 5.0)]
        assert result == list(range(0, 6))

    def test_range_scan_unbounded_high(self):
        tree = self._build(50)
        result = [payload for _, payload in tree.range_scan(45.0, None)]
        assert result == list(range(45, 50))

    def test_range_scan_empty_interval(self):
        tree = self._build(50)
        assert list(tree.range_scan(30.0, 20.0)) == []

    def test_range_scan_between_keys(self):
        tree = self._build(50)
        assert [p for _, p in tree.range_scan(10.5, 11.5)] == [11]

    def test_range_scan_matches_sorted_filter(self):
        rng = random.Random(7)
        pairs = [(rng.uniform(-10, 10), i) for i in range(300)]
        tree = BPlusTree(order=6)
        for key, payload in pairs:
            tree.insert(key, payload)
        low, high = -3.0, 4.0
        expected = sorted(
            [(k, p) for k, p in pairs if low <= k <= high], key=lambda pair: pair[0]
        )
        actual = list(tree.range_scan(low, high))
        assert [p for _, p in actual] == [p for _, p in expected]


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex("id")
        index.insert(5, RecordId(0, 1))
        assert index.lookup(5) == RecordId(0, 1)
        assert index.get(5) == RecordId(0, 1)
        assert 5 in index
        assert len(index) == 1

    def test_duplicate_insert_rejected(self):
        index = HashIndex("id")
        index.insert(5, RecordId(0, 1))
        with pytest.raises(DuplicateKeyError):
            index.insert(5, RecordId(0, 2))

    def test_missing_key_raises(self):
        with pytest.raises(KeyNotFoundError):
            HashIndex("id").lookup(1)

    def test_get_returns_none_for_missing(self):
        assert HashIndex("id").get(1) is None

    def test_update_repoints(self):
        index = HashIndex("id")
        index.insert(5, RecordId(0, 1))
        index.update(5, RecordId(3, 0))
        assert index.lookup(5) == RecordId(3, 0)

    def test_update_missing_raises(self):
        with pytest.raises(KeyNotFoundError):
            HashIndex("id").update(1, RecordId(0, 0))

    def test_delete_and_clear(self):
        index = HashIndex("id")
        index.insert(1, RecordId(0, 0))
        index.insert(2, RecordId(0, 1))
        index.delete(1)
        assert index.get(1) is None
        index.clear()
        assert len(index) == 0

    def test_keys_iteration(self):
        index = HashIndex("id")
        index.insert("a", RecordId(0, 0))
        index.insert("b", RecordId(0, 1))
        assert sorted(index.keys()) == ["a", "b"]


class TestBPlusTreeCoercionAndStats:
    def test_distinct_keys_tracks_inserts_and_deletes(self):
        tree = BPlusTree(order=4)
        assert tree.distinct_keys == 0
        tree.insert(1.0, "a")
        tree.insert(1.0, "b")
        tree.insert(2.0, "c")
        assert tree.distinct_keys == 2
        tree.delete(1.0, "a")
        assert tree.distinct_keys == 2  # bucket still holds "b"
        tree.delete(1.0, "b")
        assert tree.distinct_keys == 1
        tree.clear()
        assert tree.distinct_keys == 0

    def test_uncoerced_tree_stores_strings(self):
        tree = BPlusTree(order=4, coerce=None)
        for word in ["delta", "alpha", "carol", "bob"]:
            tree.insert(word, word.upper())
        assert [key for key, _ in tree.items()] == ["alpha", "bob", "carol", "delta"]
        assert tree.search("bob") == ["BOB"]
        assert tree.delete("bob", "BOB")
        assert tree.min_key() == "alpha" and tree.max_key() == "delta"
        tree.check_invariants()

    def test_default_tree_still_coerces_to_float(self):
        tree = BPlusTree(order=4)
        tree.insert(3, "x")  # int in ...
        assert tree.search(3.0) == ["x"]  # ... float key out
        assert tree.delete(3, "x")


class TestSecondaryIndexMaintenance:
    """Table-level maintenance: inserts, updates, deletes, NULLs, truncate."""

    @staticmethod
    def _table(db=None):
        from repro.db.costmodel import CostModel
        from repro.db.database import Database

        db = db or Database(cost_model=CostModel.main_memory())
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer, s text)")
        return db, db.catalog.table("t")

    def test_backfill_and_inline_maintenance(self):
        db, table = self._table()
        for i in range(10):
            db.execute("INSERT INTO t (id, v, s) VALUES (?, ?, ?)", (i, i % 3, f"w{i}"))
        index = table.create_secondary_index("idx_v", "v")
        assert len(index) == 10
        db.execute("INSERT INTO t (id, v) VALUES (10, 1)")
        assert len(index) == 11
        db.execute("UPDATE t SET v = 2 WHERE id = 10")
        db.execute("DELETE FROM t WHERE id = 0")
        rids = list(index.scan(KeyRange(2, 2)))
        rows = [table.heap.read(rid) for rid in rids]
        assert sorted(row["id"] for row in rows) == [2, 5, 8, 10]

    def test_nulls_are_not_indexed_and_coverage_reflects_it(self):
        db, table = self._table()
        db.execute("INSERT INTO t (id, v) VALUES (1, 5), (2, NULL), (3, 7)")
        index = table.create_secondary_index("idx_v", "v")
        assert len(index) == 2
        assert not index.covers_all_rows(table.row_count())
        db.execute("UPDATE t SET v = 9 WHERE id = 2")  # NULL -> value: now indexed
        assert len(index) == 3
        assert index.covers_all_rows(table.row_count())
        db.execute("UPDATE t SET v = NULL WHERE id = 1")  # value -> NULL: removed
        assert len(index) == 2

    def test_strict_bounds_and_string_index(self):
        db, table = self._table()
        db.execute(
            "INSERT INTO t (id, v, s) VALUES (1, 1, 'apple'), (2, 2, 'pear'), "
            "(3, 3, 'fig'), (4, 4, 'pear')"
        )
        index = table.create_secondary_index("idx_s", "s")

        def ids(rids):
            return sorted(table.heap.read(rid)["id"] for rid in rids)

        assert ids(index.scan(KeyRange("fig", "pear"))) == [2, 3, 4]
        assert ids(index.scan(KeyRange("fig", "pear", include_low=False))) == [2, 4]
        assert ids(index.scan(KeyRange("fig", "pear", include_high=False))) == [3]
        assert ids(index.scan(KeyRange(None, "fig"))) == [1, 3]

    def test_truncate_clears_indexes(self):
        db, table = self._table()
        db.execute("INSERT INTO t (id, v) VALUES (1, 1), (2, 2)")
        index = table.create_secondary_index("idx_v", "v")
        table.truncate()
        assert len(index) == 0

    def test_duplicate_index_name_rejected(self):
        from repro.exceptions import SQLExecutionError

        db, table = self._table()
        db.execute("CREATE INDEX idx_v ON t (v)")
        with pytest.raises(SQLExecutionError, match="already exists"):
            db.execute("CREATE INDEX idx_v ON t (s)")

    def test_index_ddl_diagnostics(self):
        from repro.exceptions import CatalogError, SQLPlanningError

        db, table = self._table()
        with pytest.raises(SQLPlanningError, match="no column"):
            db.execute("CREATE INDEX idx_x ON t (nope)")
        with pytest.raises(SQLPlanningError, match="not a base table"):
            db.execute("CREATE INDEX idx_x ON missing (v)")
        with pytest.raises(CatalogError, match="no index"):
            db.execute("DROP INDEX never_created")

    def test_drop_table_forgets_its_indexes(self):
        from repro.exceptions import CatalogError

        db, table = self._table()
        db.execute("CREATE INDEX idx_v ON t (v)")
        db.execute("DROP TABLE t")
        assert not db.catalog.has_index("idx_v")
        with pytest.raises(CatalogError):
            db.catalog.index_table("idx_v")

    def test_estimate_matches_statistics(self):
        db, table = self._table()
        db.executemany(
            "INSERT INTO t (id, v) VALUES (?, ?)", [(i, i % 10) for i in range(100)]
        )
        index = table.create_secondary_index("idx_v", "v")
        assert index.estimate_matches(1, KeyRange()) == pytest.approx(10.0)
        # Uniform interpolation over [0, 9]: [0, 3] covers a third of the span.
        est = index.estimate_matches(0, KeyRange(0, 3))
        assert 20 <= est <= 50
        assert index.estimate_matches(0, None) == pytest.approx(100 / 3)
        assert index.estimate_matches(0, KeyRange(20, 30)) == 0.0

    @pytest.mark.parametrize(
        "column, conjuncts, expected",
        [
            ("v", [], 100 * 1.0),
            ("v", [("=", 5)], 100 / 10),
            ("v", [("=", 5), (">", 3)], 100 / 10),
            ("v", [(">", 3)], 100 * (6 / 10)),
            ("v", [(">=", 2), ("<", 5)], 100 * (3 / 10)),
            ("v", [(">=", 2.5), ("<=", 4)], 100 * (1.5 / 9)),
            ("v", [("<", 100)], 100 * 1.0),
            ("v", [(">", 20)], 0.0),
            ("v", [(">=", 9)], 100 / 10),
            ("v", [(">", 8)], 100 / 10),
            ("v", [(">", "?")], 100 * (1 / 3)),
            ("v", [("=", "?")], 100 / 10),
            ("s", [], 100 * 1.0),
            ("s", [("=", "w3")], 100 / 7),
            ("s", [(">", "w2")], 100 * (1 / 3)),
        ],
    )
    def test_single_column_estimates(self, column, conjuncts, expected):
        """The planner's estimate of a one-column probe, bit for bit: the
        whole key pinned is ``n / distinct`` (an ``=`` pins it whatever
        ranges ride along), an unbounded walk reads every entry, a literal
        integer range counts the integer values it covers of [min, max], a
        literal numeric one interpolates over [min, max], anything else
        takes the default third."""
        from repro.db.sql.ast import PLACEHOLDER
        from repro.db.sql.plan import Predicate, leftmost_prefix
        from repro.db.sql.planner import Planner

        db, table = self._table()
        db.executemany(
            "INSERT INTO t (id, v, s) VALUES (?, ?, ?)",
            [(i, i % 10, f"w{i % 7}") for i in range(100)],
        )
        index = table.create_secondary_index(f"idx_{column}", column)
        predicates = [
            Predicate(column, operator, PLACEHOLDER, param_index=0)
            if value == "?"
            else Predicate(column, operator, value)
            for operator, value in conjuncts
        ]
        prefix = leftmost_prefix(index.columns, predicates)
        assert Planner(db)._estimate(index, prefix) == expected

    def test_order_fusion_prices_the_sort_of_every_text_entry(self):
        """``ORDER BY s LIMIT 5`` weighs an index-ordered walk against a scan
        plus a sort of every entry; priced as a third of them, the sort looked
        cheap enough to keep the scan on 4,000 rows."""
        from repro.db.database import Database

        db = Database()
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, s text)")
        db.executemany(
            "INSERT INTO t (id, s) VALUES (?, ?)", [(i, f"w{i % 7}") for i in range(4000)]
        )
        db.execute("CREATE INDEX isx ON t (s)")
        sql = "SELECT id, s FROM t ORDER BY s LIMIT 5"
        nodes = [row["node"].strip() for row in db.execute(f"EXPLAIN {sql}").rows]
        assert nodes[1:] == [
            "Limit(5)",
            "SecondaryIndexRange(t.isx: unbounded, order=s asc, limit=5)",
        ]
        assert db.execute(sql).rows == [{"id": i, "s": "w0"} for i in range(0, 35, 7)]

    def test_range_estimate_survives_deletes_that_empty_the_end_leaves(self):
        """Lazy deletion leaves empty leaves behind; the min/max the range
        estimate interpolates between must skip them."""
        db, table = self._table()
        db.executemany("INSERT INTO t (id, v) VALUES (?, ?)", [(i, i) for i in range(1000)])
        db.execute("CREATE INDEX ix ON t (v)")
        db.execute("DELETE FROM t WHERE v < 100")
        db.execute("DELETE FROM t WHERE v >= 950")
        index = table.secondary_index("ix")
        assert len(index) == 850
        assert index.tree.min_key() == (100,) and index.tree.max_key() == (949,)
        leaf = db.execute("EXPLAIN SELECT id FROM t WHERE v >= 100 AND v < 110").rows[-1]
        assert "(~10 of 850 rows)" in leaf["detail"]

    def test_nan_values_are_never_indexed(self):
        from repro.db.costmodel import CostModel
        from repro.db.database import Database

        db = Database(cost_model=CostModel.main_memory())
        db.execute("CREATE TABLE f (id integer PRIMARY KEY, v float)")
        table = db.catalog.table("f")
        db.execute("INSERT INTO f (id, v) VALUES (1, 3.5)")
        index = table.create_secondary_index("idx_v", "v")
        nan = float("nan")
        db.execute("INSERT INTO f (id, v) VALUES (?, ?)", (2, nan))
        assert len(index) == 1  # the NaN row is not indexed ...
        assert not index.covers_all_rows(table.row_count())
        db.execute("DELETE FROM f WHERE id = 2")  # ... so deleting leaves no ghost
        assert len(index) == 1
        assert index.covers_all_rows(table.row_count())
        db.execute("INSERT INTO f (id, v) VALUES (?, ?)", (3, nan))
        db.execute("UPDATE f SET v = 5.0 WHERE id = 3")  # NaN -> value: indexed now
        assert len(index) == 2
        # A NaN-valued parameter answers identically to the scan (empty).
        assert db.execute("SELECT id FROM f WHERE v >= ?", (nan,)).rows == []


class TestReverseRangeScan:
    """The doubly-linked leaf chain: descending scans mirror ascending ones."""

    def test_reverse_scan_mirrors_forward_scan(self):
        tree = BPlusTree(order=4)
        keys = random.Random(7).sample(range(1000), 300)
        for key in keys:
            tree.insert(key, f"p{key}")
        tree.check_invariants()
        forward = list(tree.range_scan(None, None))
        assert list(tree.range_scan_reversed(None, None)) == forward[::-1]
        assert list(tree.range_scan_reversed(100, 500)) == list(
            tree.range_scan(100, 500)
        )[::-1]

    def test_reverse_scan_bounds_and_duplicates(self):
        tree = BPlusTree(order=4)
        for key, payload in [(1, "a"), (2, "b"), (2, "c"), (3, "d")]:
            tree.insert(key, payload)
        assert list(tree.range_scan_reversed(2, 2)) == [(2.0, "c"), (2.0, "b")]
        assert list(tree.range_scan_reversed(5, 1)) == []
        assert list(tree.range_scan_reversed(None, 1.5)) == [(1.0, "a")]
        assert list(tree.range_scan_reversed(2.5, None)) == [(3.0, "d")]

    def test_prev_leaf_chain_survives_deletes(self):
        tree = BPlusTree(order=4)
        for key in range(120):
            tree.insert(key, key)
        for key in range(0, 120, 3):
            assert tree.delete(key, key)
        tree.check_invariants()
        remaining = sorted(set(range(120)) - set(range(0, 120, 3)))
        assert [key for key, _ in tree.range_scan_reversed(None, None)] == [
            float(key) for key in reversed(remaining)
        ]

    def test_empty_tree_reverse_scan(self):
        tree = BPlusTree(order=4)
        assert list(tree.range_scan_reversed(None, None)) == []


class TestCompositeSecondaryIndex:
    """Multi-column (tuple-key) secondary indexes and their prefix probes."""

    @staticmethod
    def _table():
        from repro.db.costmodel import CostModel
        from repro.db.database import Database

        db = Database(cost_model=CostModel.main_memory())
        db.execute(
            "CREATE TABLE m (id integer PRIMARY KEY, a integer, b float, c text)"
        )
        return db, db.catalog.table("m")

    def _ids(self, table, entries):
        return sorted(table.heap.read(rid)["id"] for rid in entries)

    def test_tuple_keys_and_prefix_scan(self):
        db, table = self._table()
        db.executemany(
            "INSERT INTO m (id, a, b) VALUES (?, ?, ?)",
            [(i, i % 3, float(i)) for i in range(12)],
        )
        index = table.create_secondary_index("idx_ab", ("a", "b"))
        assert index.columns == ("a", "b")
        assert index.key_of({"a": 1, "b": 4.0}) == (1, 4.0)
        assert len(index) == 12
        # Full-key equality.
        assert self._ids(table, index.scan(KeyRange(4.0, 4.0), equalities=(1,))) == [4]
        # Prefix equality, unbounded range: every a=1 row, ordered by b.
        rids = list(index.scan(KeyRange(), equalities=(1,)))
        assert [table.heap.read(rid)["id"] for rid in rids] == [1, 4, 7, 10]
        # Prefix equality + range on the second column.
        assert self._ids(table, index.scan(KeyRange(4.0, 8.0), equalities=(1,))) == [4, 7]
        assert self._ids(
            table, index.scan(KeyRange(4.0, 8.0, include_low=False), equalities=(1,))
        ) == [7]
        # Reverse walk early-exits from the high end.
        rids = list(index.scan(KeyRange(), equalities=(1,), reverse=True))
        assert [table.heap.read(rid)["id"] for rid in rids] == [10, 7, 4, 1]

    def test_null_in_any_key_column_unindexes_the_row(self):
        db, table = self._table()
        db.execute("INSERT INTO m (id, a, b) VALUES (1, 1, 1.0), (2, 1, NULL), (3, NULL, 2.0)")
        index = table.create_secondary_index("idx_ab", ("a", "b"))
        assert len(index) == 1
        assert not index.covers_all_rows(table.row_count())
        db.execute("UPDATE m SET b = 5.0 WHERE id = 2")
        assert len(index) == 2

    def test_maintenance_replace_and_delete(self):
        db, table = self._table()
        db.execute("INSERT INTO m (id, a, b) VALUES (1, 1, 1.0), (2, 2, 2.0)")
        index = table.create_secondary_index("idx_ab", ("a", "b"))
        db.execute("UPDATE m SET b = 9.0 WHERE id = 1")
        assert self._ids(table, index.scan(KeyRange(9.0, 9.0), equalities=(1,))) == [1]
        assert self._ids(table, index.scan(KeyRange(1.0, 1.0), equalities=(1,))) == []
        db.execute("DELETE FROM m WHERE id = 2")
        assert len(index) == 1

    def test_composite_ddl_and_catalog(self):
        from repro.exceptions import SQLPlanningError

        db, table = self._table()
        db.execute("CREATE INDEX idx_ab ON m (a, b)")
        index = table.secondary_index("idx_ab")
        assert index is not None and index.columns == ("a", "b")
        with pytest.raises(SQLPlanningError, match="more than once"):
            db.execute("CREATE INDEX idx_dup ON m (a, a)")
        with pytest.raises(SQLPlanningError, match="no column"):
            db.execute("CREATE INDEX idx_bad ON m (a, nope)")
        db.execute("DROP INDEX idx_ab")
        assert table.secondary_index("idx_ab") is None

    def test_single_column_index_is_a_one_column_composite(self):
        """One key shape: a one-column index keys on 1-tuples, and a full-key
        equality probe answers exactly what the point range does."""
        db, table = self._table()
        db.execute("INSERT INTO m (id, a, b) VALUES (1, 1, 1.0), (2, 2, 2.0), (3, 1, 3.0)")
        index = table.create_secondary_index("idx_a", "a")
        assert [key for key, _ in index.tree.items()] == [(1,), (1,), (2,)]
        assert self._ids(table, index.scan(KeyRange(), equalities=(1,))) == [1, 3]
        assert self._ids(table, index.scan(KeyRange(1, 1))) == [1, 3]

    def test_estimate_prefix_matches(self):
        db, table = self._table()
        db.executemany(
            "INSERT INTO m (id, a, b) VALUES (?, ?, ?)",
            [(i, i % 4, float(i % 25)) for i in range(100)],
        )
        index = table.create_secondary_index("idx_ab", ("a", "b"))
        # Full-key equality: n / distinct keys.
        full = index.estimate_matches(2, KeyRange())
        assert full == pytest.approx(100 / index.tree.distinct_keys)
        # One equality column: n / distinct^(1/2).
        one_eq = index.estimate_matches(1, KeyRange())
        assert one_eq == pytest.approx(100 / (index.tree.distinct_keys**0.5))
        # Adding a range tightens the estimate further.
        assert index.estimate_matches(1, None) < one_eq
        assert index.estimate_matches(1, KeyRange(3.0, 7.0)) < one_eq
        assert index.estimate_matches(0, KeyRange()) == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "columns, conjuncts, before, after",
        [
            # A literal range on the leading column counts 3 of the values 0..3.
            (("a", "b"), [("a", ">=", 1)], 100 / 3, 100 * (3 / 4)),
            # A column carrying an ``=`` is pinned, whatever ranges ride along.
            (("a", "b"), [("a", "=", 1), ("a", ">", 0)], 100 / 3, 100 / 100**0.5),
            (("a", "b"), [("a", "=", 1), ("a", ">", 0), ("b", "=", 5.0)], 100 / 3, 100 / 100),
        ],
    )
    def test_composite_estimates_gain_the_single_column_rules(
        self, columns, conjuncts, before, after
    ):
        """Where one estimator moved a composite estimate: only by a rule the
        one-column estimate already had (``before`` is the separate
        composite estimator's figure, kept for the record)."""
        from repro.db.sql.plan import Predicate, leftmost_prefix
        from repro.db.sql.planner import Planner

        db, table = self._table()
        db.executemany(
            "INSERT INTO m (id, a, b, c) VALUES (?, ?, ?, ?)",
            [(i, i % 4, float(i % 25), f"w{i % 5}") for i in range(100)],
        )
        index = table.create_secondary_index("idx", columns)
        assert index.distinct_keys == 100 if columns == ("a", "b") else 20
        prefix = leftmost_prefix(columns, [Predicate(*conjunct) for conjunct in conjuncts])
        estimate = Planner(db)._estimate(index, prefix)
        assert estimate == pytest.approx(after) and estimate != pytest.approx(before)
