"""The plan-first query layer: golden plans, EXPLAIN ANALYZE, plan-time
diagnostics, prepared-statement caching, and pushed-down range scans."""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql.parser import parse
from repro.db.sql.planner import Planner
from repro.exceptions import SQLExecutionError, SQLPlanningError
from repro.features.base import FeatureFunction
from repro.persist.snapshot import decode_vector, encode_vector
from repro.workloads import dblife_like

from tests.conftest import net_of_statements
from tests.db.test_sql_serving import build_portal


def plan_nodes(executor, sql: str) -> list[str]:
    """The EXPLAIN node labels for one SELECT, indentation stripped."""
    statement = parse(sql)
    plan = executor.plan_select(statement)
    return [row["node"].strip() for row in plan.explain_rows()]


class PreFeaturizedColumn(FeatureFunction):
    """Decode a JSON-encoded sparse vector stored in the ``features`` column."""

    name = "prefeaturized"
    norm_q = 1.0

    def compute_feature(self, row):
        return decode_vector(json.loads(row["features"]))


def balanced_portal(entities: int = 160):
    """A SQL-only portal over a dataset whose view splits into both classes."""
    dataset = dblife_like(scale=0.08, seed=3)
    subset = dataset.entities[:entities]
    conn = repro.connect(architecture="mainmemory", strategy="hazy", approach="eager")
    conn.engine.registry.register("prefeaturized", PreFeaturizedColumn)
    conn.execute("CREATE TABLE entities (id integer PRIMARY KEY, features text)")
    conn.execute("CREATE TABLE examples (id integer, label integer)")
    conn.executemany(
        "INSERT INTO entities (id, features) VALUES (?, ?)",
        [
            (entity_id, json.dumps(encode_vector(features)))
            for entity_id, features in subset
        ],
    )
    conn.executemany(
        "INSERT INTO examples (id, label) VALUES (?, ?)",
        [
            (entity_id, dataset.labels[entity_id])
            for entity_id, _ in subset[: entities // 3]
        ],
    )
    conn.execute(
        "CREATE CLASSIFICATION VIEW labeled KEY id "
        "ENTITIES FROM entities KEY id "
        "EXAMPLES FROM examples KEY id LABEL label "
        "FEATURE FUNCTION prefeaturized USING SVM"
    )
    positives = conn.execute("SELECT COUNT(*) FROM labeled WHERE class = 1").scalar()
    assert 0 < positives < entities, "fixture must split into both classes"
    return conn


class TestGoldenPlans:
    """Stable plan text per read shape — EXPLAIN prints what the executor runs."""

    def test_table_shapes(self):
        db, _, _ = build_portal(count=20)
        executor = db.executor
        assert plan_nodes(executor, "SELECT * FROM papers WHERE id = 1") == [
            "Filter(id = 1)",
            "IndexRange(papers.id = 1)",
        ]
        assert plan_nodes(executor, "SELECT * FROM papers") == ["SeqScan(papers)"]
        assert plan_nodes(executor, "SELECT id FROM papers ORDER BY title DESC LIMIT 3") == [
            "Project(id)",
            "TopK(k=3, by=title desc)",
            "SeqScan(papers)",
        ]
        assert plan_nodes(executor, "SELECT COUNT(*) FROM papers WHERE id >= 5") == [
            "Aggregate(count)",
            "Filter(id >= 5)",
            "SeqScan(papers)",
        ]
        # Placeholders stay unbound in the plan: the cached form re-binds them.
        assert plan_nodes(executor, "SELECT * FROM papers WHERE id = ?") == [
            "Filter(id = ?)",
            "IndexRange(papers.id = ?)",
        ]

    def test_view_shapes_unserved_and_served(self):
        db, _, _ = build_portal(count=20)
        executor = db.executor
        shapes = {
            "SELECT class FROM labeled_papers WHERE id = 1": (
                "ViewPointRead(labeled_papers.id = 1)",
                "ServedPointRead(labeled_papers.id = 1)",
            ),
            "SELECT id FROM labeled_papers WHERE class = 'database'": (
                "ViewMembers(labeled_papers, class = 'database')",
                "ServedScatterGather(labeled_papers, class = 'database')",
            ),
            "SELECT id FROM labeled_papers WHERE class = 'database' AND id >= 5": (
                "ViewRangeRead(labeled_papers, class = 'database' AND id >= 5)",
                "ServedRangeScan(labeled_papers, class = 'database' AND id >= 5)",
            ),
            "SELECT * FROM labeled_papers": (
                "ViewScan(labeled_papers)",
                "ServedScatterGather(labeled_papers, contents)",
            ),
        }
        for sql, (unserved, _) in shapes.items():
            assert plan_nodes(executor, sql)[-1] == unserved, sql
        db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        try:
            for sql, (_, served) in shapes.items():
                assert plan_nodes(executor, sql)[-1] == served, sql
            assert plan_nodes(
                executor, "SELECT id FROM labeled_papers ORDER BY margin DESC LIMIT 4"
            ) == ["Project(id)", "TopK(k=4, by=margin desc)"]
        finally:
            db.execute("STOP SERVING labeled_papers")

    def test_join_shapes(self):
        db, _, _ = build_portal(count=20)
        executor = db.executor
        sql = (
            "SELECT title, class FROM papers JOIN labeled_papers "
            "ON papers.id = labeled_papers.id WHERE class = 'database'"
        )
        assert plan_nodes(executor, sql) == [
            "Project(title, class)",
            "HashJoin(id = id)",
            "SeqScan(papers)",
            "ViewMembers(labeled_papers, class = 'database')",
        ]
        db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        try:
            # Predicate on the view side: pushed below the join, scatter/gather.
            assert plan_nodes(executor, sql)[-1] == (
                "ServedScatterGather(labeled_papers, class = 'database')"
            )
            # No predicate on the served side: the probe keys drive the batcher.
            assert plan_nodes(
                executor,
                "SELECT title, class FROM papers JOIN labeled_papers "
                "ON papers.id = labeled_papers.id",
            ) == [
                "Project(title, class)",
                "HashJoin(id = id)",
                "SeqScan(papers)",
                "ServedPointRead(labeled_papers, batch)",
            ]
        finally:
            db.execute("STOP SERVING labeled_papers")

    def test_explain_prints_the_plan_the_executor_runs(self):
        """EXPLAIN output equals the planner's rendering of the same statement."""
        db, _, _ = build_portal(count=20)
        sql = "SELECT class FROM labeled_papers WHERE id = 1"
        explain = [row["node"] for row in db.execute(f"EXPLAIN {sql}").rows]
        planned = [
            row["node"] for row in db.executor.plan_select(parse(sql)).explain_rows()
        ]
        assert explain == planned


def indexed_table_db(rows: int = 400):
    """A main-memory database with an indexed measurement table."""
    db = Database(cost_model=CostModel.main_memory())
    db.execute(
        "CREATE TABLE readings (id integer PRIMARY KEY, margin float, station integer)"
    )
    rng = random.Random(11)
    db.executemany(
        "INSERT INTO readings (id, margin, station) VALUES (?, ?, ?)",
        [
            (i, round(rng.uniform(0.0, 1.0), 4), rng.randrange(8))
            for i in range(rows)
        ],
    )
    db.execute("CREATE INDEX idx_margin ON readings (margin)")
    return db


class TestSecondaryIndexPlans:
    """Golden plan text for the CREATE INDEX access paths."""

    def test_index_equality_and_range_shapes(self):
        db = indexed_table_db()
        executor = db.executor
        db.execute("CREATE INDEX idx_station ON readings (station)")
        assert plan_nodes(executor, "SELECT id FROM readings WHERE station = 3") == [
            "Project(id)",
            "Filter(station = 3)",
            "SecondaryIndexRange(readings.idx_station: station = 3)",
        ]
        assert plan_nodes(
            executor, "SELECT id FROM readings WHERE margin >= 0.9 AND margin < 0.95"
        ) == [
            "Project(id)",
            "Filter(margin >= 0.9 AND margin < 0.95)",
            "SecondaryIndexRange(readings.idx_margin: margin >= 0.9 AND margin < 0.95)",
        ]
        # Placeholders keep the index path; bounds bind at execution.
        assert plan_nodes(executor, "SELECT id FROM readings WHERE margin >= ?") == [
            "Project(id)",
            "Filter(margin >= ?)",
            "SecondaryIndexRange(readings.idx_margin: margin >= ?)",
        ]

    def test_primary_key_point_still_wins(self):
        db = indexed_table_db()
        assert plan_nodes(db.executor, "SELECT * FROM readings WHERE id = 7") == [
            "Filter(id = 7)",
            "IndexRange(readings.id = 7)",
        ]

    def test_index_ordered_topk_elides_sort(self):
        db = indexed_table_db()
        assert plan_nodes(
            db.executor, "SELECT id FROM readings ORDER BY margin DESC LIMIT 4"
        ) == [
            "Project(id)",
            "Limit(4)",
            "SecondaryIndexRange(readings.idx_margin: unbounded, order=margin desc, limit=4)",
        ]
        # ... and the ordered read equals the sort-based reference.
        got = db.execute("SELECT id, margin FROM readings ORDER BY margin ASC LIMIT 6").rows
        reference = sorted(
            db.execute("SELECT * FROM readings").rows, key=lambda row: row["margin"]
        )[:6]
        assert [row["margin"] for row in got] == [row["margin"] for row in reference]

    def test_index_backed_join_side(self):
        db = indexed_table_db()
        db.execute("CREATE TABLE stations (sid integer PRIMARY KEY, name text)")
        db.executemany(
            "INSERT INTO stations (sid, name) VALUES (?, ?)",
            [(i, f"s{i}") for i in range(8)],
        )
        sql = (
            "SELECT name, margin FROM stations JOIN readings "
            "ON stations.sid = readings.station WHERE margin >= 0.97"
        )
        assert plan_nodes(db.executor, sql) == [
            "Project(name, margin)",
            "HashJoin(sid = station)",
            "SeqScan(stations)",
            "Filter(margin >= 0.97)",
            "SecondaryIndexRange(readings.idx_margin: margin >= 0.97)",
        ]
        joined = db.execute(sql).rows
        reference = [
            (f"s{row['station']}", row["margin"])
            for row in db.execute("SELECT * FROM readings").rows
            if row["margin"] >= 0.97
        ]
        assert sorted((row["name"], row["margin"]) for row in joined) == sorted(reference)

    def test_unselective_predicate_keeps_seq_scan(self):
        db = indexed_table_db()
        assert plan_nodes(db.executor, "SELECT id FROM readings WHERE margin >= 0.01")[
            -1
        ] == "SeqScan(readings)"

    def test_explain_equals_executed_tree_for_index_plans(self):
        db = indexed_table_db()
        sql = "SELECT id FROM readings WHERE margin >= 0.9"
        explain = [row["node"] for row in db.execute(f"EXPLAIN {sql}").rows]
        analyzed = [row["node"] for row in db.execute(f"EXPLAIN ANALYZE {sql}").rows]
        planned = [
            row["node"] for row in db.executor.plan_select(parse(sql)).explain_rows()
        ]
        assert explain == analyzed == planned

    def test_create_and_drop_index_replan_on_shared_engine_connection(self):
        """Index DDL on one connection re-plans the other's cached plans."""
        conn = repro.connect(cost_model=CostModel.main_memory())
        other = repro.connect(engine=conn.engine)
        try:
            conn.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
            conn.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)", [(i, i % 50) for i in range(300)]
            )
            sql = "SELECT id FROM t WHERE v = 7"
            before = other.execute(sql).fetchall()  # caches the SeqScan plan
            assert other.prepare(sql).plan.explain_rows()[-1]["node"].strip() == (
                "SeqScan(t)"
            )
            conn.execute("CREATE INDEX idx_v ON t (v)")
            during = other.execute(sql).fetchall()
            leaf = other.prepare(sql).plan.explain_rows()[-1]["node"].strip()
            assert leaf == "SecondaryIndexRange(t.idx_v: v = 7)"
            conn.execute("DROP INDEX idx_v")
            after = other.execute(sql).fetchall()
            assert other.prepare(sql).plan.explain_rows()[-1]["node"].strip() == (
                "SeqScan(t)"
            )
            assert sorted(r["id"] for r in before) == sorted(
                r["id"] for r in during
            ) == sorted(r["id"] for r in after)
        finally:
            other.close()
            conn.close()


class TestExplainAnalyze:
    def test_actual_vs_estimated_per_node(self):
        db, _, _ = build_portal(count=20)
        rows = db.execute("EXPLAIN ANALYZE SELECT * FROM papers WHERE id = 1").rows
        assert [row["node"].strip() for row in rows] == [
            "Filter(id = 1)",
            "IndexRange(papers.id = 1)",
        ]
        for row in rows:
            assert set(row) == {
                "node", "estimated_seconds", "actual_seconds", "rows",
                "pages_read", "pages_written", "detail",
            }
        # The point lookup actually charged the ledger; the filter is CPU-free.
        index_row = rows[1]
        assert index_row["rows"] == 1
        assert index_row["actual_seconds"] > 0
        assert rows[0]["actual_seconds"] == pytest.approx(0.0)
        # The statement's buffer-pool delta rides on the root row only.
        assert rows[0]["pages_read"] >= 0
        assert rows[1]["pages_read"] is None

    def test_analyze_executes_through_the_served_path(self):
        db, engine, documents = build_portal()
        db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        try:
            rows = db.execute(
                "EXPLAIN ANALYZE SELECT class FROM labeled_papers WHERE id = ?",
                (documents[0].entity_id,),
            ).rows
            leaf = rows[-1]
            assert leaf["node"].strip() == "ServedPointRead(labeled_papers.id = ?)"
            assert leaf["rows"] == 1
            assert leaf["actual_seconds"] > 0
        finally:
            db.execute("STOP SERVING labeled_papers")

    def test_analyze_rejects_dml(self):
        db, _, _ = build_portal(count=20)
        with pytest.raises(SQLExecutionError, match="EXPLAIN ANALYZE supports SELECT"):
            db.execute("EXPLAIN ANALYZE INSERT INTO papers (id, title) VALUES (999, 'x')")
        assert db.execute("SELECT COUNT(*) FROM papers WHERE id = 999").scalar() == 0


class TestExplainAnalyzeCacheConsistency:
    """Regression: a cached EXPLAIN [ANALYZE] plan must re-plan after DDL.

    EXPLAIN goes through the prepared-statement cache like any SELECT; when a
    DDL statement (here ``CREATE INDEX``, which changes access paths without
    changing the namespace) bumps the catalog version on another shared-engine
    connection, the next EXPLAIN ANALYZE must report the *re-planned* tree,
    never the stale cached one.
    """

    def test_explain_analyze_reports_replanned_tree_after_ddl(self):
        conn = repro.connect(cost_model=CostModel.main_memory())
        other = repro.connect(engine=conn.engine)
        try:
            conn.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
            conn.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)", [(i, i % 40) for i in range(400)]
            )
            sql = "EXPLAIN ANALYZE SELECT id FROM t WHERE v = 3"
            before = other.execute(sql).fetchall()  # caches the plan on `other`
            assert before[-1]["node"].strip() == "SeqScan(t)"
            assert other.prepare(sql).plan is not None  # EXPLAIN really is cached
            conn.execute("CREATE INDEX idx_v ON t (v)")  # bumps the catalog version
            after = other.execute(sql).fetchall()
            assert after[-1]["node"].strip() == "SecondaryIndexRange(t.idx_v: v = 3)"
            # The actuals prove the re-planned tree was the one executed.
            assert after[-1]["rows"] == 10
            conn.execute("DROP INDEX idx_v")
            reverted = other.execute(sql).fetchall()
            assert reverted[-1]["node"].strip() == "SeqScan(t)"
        finally:
            other.close()
            conn.close()

    def test_executor_honours_version_guard_on_supplied_explain_plan(self):
        """Even a directly supplied stale plan is rebuilt by the executor."""
        db = indexed_table_db()
        statement = parse("EXPLAIN ANALYZE SELECT id FROM readings WHERE margin >= 0.9")
        stale = db.executor.plan_select(statement.statement)
        db.execute("DROP INDEX idx_margin")  # version moves; `stale` holds the index
        rows = db.executor.execute(statement, plan=stale).rows
        assert rows[-1]["node"].strip() == "SeqScan(readings)"
        assert rows[-1]["rows"] > 0


class TestPlanTimeDiagnostics:
    """Semantic errors surface at plan time with position/token diagnostics."""

    def test_unknown_column_on_served_view_rejected_at_plan_time(self):
        db, _, _ = build_portal(count=20)
        db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        try:
            sql = "SELECT venue FROM labeled_papers WHERE id = 1"
            with pytest.raises(SQLPlanningError) as excinfo:
                db.execute(sql)
            assert excinfo.value.token == "venue"
            assert excinfo.value.position == sql.index("venue")
        finally:
            db.execute("STOP SERVING labeled_papers")

    def test_unknown_where_column_carries_position(self):
        db, _, _ = build_portal(count=20)
        sql = "SELECT id FROM labeled_papers WHERE margins = 1"
        with pytest.raises(SQLPlanningError) as excinfo:
            db.execute(sql)
        assert excinfo.value.token == "margins"
        assert excinfo.value.position == sql.index("margins")

    def test_unknown_table_column_rejected_at_plan_time(self):
        db, _, _ = build_portal(count=20)
        with pytest.raises(SQLPlanningError, match="unknown column 'venue'"):
            db.execute("SELECT venue FROM papers")
        with pytest.raises(SQLPlanningError, match="ORDER BY"):
            db.execute("SELECT id FROM papers ORDER BY venue")

    def test_margin_outside_topk_rejected(self):
        db, _, _ = build_portal(count=20)
        with pytest.raises(SQLPlanningError, match="margin"):
            db.execute("SELECT margin FROM labeled_papers WHERE id = 1")
        with pytest.raises(SQLPlanningError, match="ORDER BY margin"):
            db.execute("SELECT id FROM labeled_papers ORDER BY margin DESC")

    def test_bad_qualifier_rejected(self):
        db, _, _ = build_portal(count=20)
        with pytest.raises(SQLPlanningError, match="unknown table qualifier"):
            db.execute("SELECT other.id FROM papers")

    def test_ambiguous_join_column_rejected(self):
        db, _, _ = build_portal(count=20)
        with pytest.raises(SQLPlanningError, match="ambiguous column 'id'"):
            db.execute(
                "SELECT id FROM papers JOIN labeled_papers "
                "ON papers.id = labeled_papers.id"
            )


class TestPreparedStatements:
    """The connection-level LRU plan cache: parse and plan once per SQL text."""

    def test_repeat_execution_plans_once(self, monkeypatch):
        conn = balanced_portal()
        try:
            calls = {"count": 0}
            original = Planner.plan_select

            def counting(self, statement):
                calls["count"] += 1
                return original(self, statement)

            monkeypatch.setattr(Planner, "plan_select", counting)
            sql = "SELECT id, class FROM labeled WHERE id = ?"
            first = conn.execute(sql, (3,)).fetchall()
            second = conn.execute(sql, (5,)).fetchall()
            third = conn.execute(sql, (3,)).fetchall()
            assert calls["count"] == 1  # planned once, re-bound thereafter
            assert first == third
            assert first[0]["id"] == 3 and second[0]["id"] == 5
        finally:
            conn.close()

    def test_executemany_reuses_the_plan(self, monkeypatch):
        conn = balanced_portal()
        try:
            calls = {"count": 0}
            original = Planner.plan_select

            def counting(self, statement):
                calls["count"] += 1
                return original(self, statement)

            monkeypatch.setattr(Planner, "plan_select", counting)
            cursor = conn.executemany(
                "SELECT class FROM labeled WHERE id = ?", [(1,), (2,), (3,)]
            )
            assert calls["count"] == 1
            assert cursor.rowcount == 3
        finally:
            conn.close()

    def test_serving_lifecycle_invalidates_cached_plans(self):
        conn = balanced_portal()
        try:
            sql = "SELECT class FROM labeled WHERE id = ?"
            conn.execute(sql, (1,))
            assert conn.prepare(sql).plan.root.walk  # cached
            cached_before = conn.prepare(sql)
            conn.execute("SERVE VIEW labeled WITH (shards = 2)")
            cached_after = conn.prepare(sql)
            assert cached_after is not cached_before  # cache was cleared
            leaf = cached_after.plan.explain_rows()[-1]["node"].strip()
            assert leaf.startswith("ServedPointRead")
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()

    def test_stale_plan_stays_correct_across_serving_changes(self):
        """A plan cached by one connection survives another connection's
        SERVE VIEW / STOP SERVING: the nodes re-resolve serving state."""
        conn = balanced_portal()
        other = repro.connect(engine=conn.engine)
        try:
            sql = "SELECT class FROM labeled WHERE id = 7"
            before = other.execute(sql).fetchall()
            conn.execute("SERVE VIEW labeled WITH (shards = 2)")
            during = other.execute(sql).fetchall()  # same cached plan, served now
            conn.execute("STOP SERVING labeled")
            after = other.execute(sql).fetchall()
            assert before == during == after
        finally:
            other.close()
            conn.close()

    def test_cache_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.connection.PLAN_CACHE_SIZE", 2)
        conn = repro.connect()
        try:
            conn.execute("CREATE TABLE t (a integer PRIMARY KEY)")
            conn.execute("SELECT * FROM t")
            conn.execute("SELECT a FROM t")
            conn.execute("SELECT COUNT(*) FROM t")
            assert list(conn._statements) == ["SELECT a FROM t", "SELECT COUNT(*) FROM t"]
            assert conn.plan_cache_stats()["capacity"] == 2
        finally:
            conn.close()

    def test_ddl_on_another_connection_invalidates_cached_plans(self):
        """The catalog version guards cached plans across shared-engine
        connections: a table dropped and recreated elsewhere must not be read
        through a stale plan holding the dead Table object."""
        conn = repro.connect()
        other = repro.connect(engine=conn.engine)
        try:
            conn.execute("CREATE TABLE t (a integer PRIMARY KEY, b integer)")
            conn.execute("INSERT INTO t (a, b) VALUES (1, 10)")
            assert other.execute("SELECT * FROM t").fetchall() == [{"a": 1, "b": 10}]
            conn.execute("DROP TABLE t")
            conn.execute("CREATE TABLE t (a integer PRIMARY KEY, b integer)")
            conn.execute("INSERT INTO t (a, b) VALUES (2, 20)")
            # `other` still holds the old plan in its cache; the executor
            # re-plans because the catalog version moved.
            assert other.execute("SELECT * FROM t").fetchall() == [{"a": 2, "b": 20}]
            # ... and prepare() refreshed the cached plan in place, so the hot
            # path is not stuck re-planning on every execution.
            refreshed = other.prepare("SELECT * FROM t")
            assert refreshed.plan.catalog_version == other.database.catalog.version
        finally:
            other.close()
            conn.close()


class TestRangePushdown:
    """Pushed-down range scans return byte-identical rows to post-filtering."""

    @staticmethod
    def _post_filter(conn, low):
        """The old access path: materialize the whole view, filter client-side."""
        rows = conn.execute("SELECT * FROM labeled").fetchall()
        return sorted(
            (row for row in rows if row["class"] == 1 and row["id"] >= low),
            key=lambda row: row["id"],
        )

    def test_unserved_and_served_identical_to_post_filter(self):
        conn = balanced_portal()
        try:
            low = 40
            sql = "SELECT * FROM labeled WHERE class = 1 AND id >= ? ORDER BY id"
            expected = self._post_filter(conn, low)
            assert expected, "fixture must produce in-range members"
            unserved = conn.execute(sql, (low,)).fetchall()
            assert unserved == expected
            conn.execute("SERVE VIEW labeled WITH (shards = 3)")
            served = conn.execute(sql, (low,)).fetchall()
            assert served == expected
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()

    def test_range_operators_and_bounds(self):
        conn = balanced_portal()
        try:
            rows = conn.execute("SELECT * FROM labeled").fetchall()
            members = sorted(row["id"] for row in rows if row["class"] == 1)
            low, high = members[1], members[-2]
            got = conn.execute(
                "SELECT id FROM labeled WHERE class = 1 AND id > ? AND id <= ? ORDER BY id",
                (low, high),
            ).fetchall()
            assert [row["id"] for row in got] == [
                m for m in members if low < m <= high
            ]
        finally:
            conn.close()

    def test_served_range_scan_cheaper_than_contents(self):
        """The shard operator beats materialize-and-post-filter on the ledger,
        net of the statement dispatch both pay once per shard."""
        conn = balanced_portal()
        try:
            conn.execute("SERVE VIEW labeled WITH (shards = 3)")
            server = conn.engine.view("labeled").server
            start = net_of_statements(server)
            conn.execute("SELECT id FROM labeled WHERE class = 1 AND id >= 40")
            pushed = net_of_statements(server) - start
            start = net_of_statements(server)
            conn.execute("SELECT * FROM labeled").fetchall()
            materialized = net_of_statements(server) - start
            assert pushed * 2 <= materialized
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()
