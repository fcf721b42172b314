"""The ``system.*`` virtual tables through the SQL front door."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import SQLPlanningError
from repro.workloads.synth_text import SparseCorpusGenerator

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW labeled_papers KEY id "
    "ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label "
    "EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)


def build_served_connection(count: int = 60, shards: int = 2, seed: int = 23):
    conn = repro.connect()
    conn.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    conn.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    conn.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    conn.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    documents = SparseCorpusGenerator(
        vocabulary_size=250, nonzeros_per_document=10, positive_fraction=0.4, seed=seed
    ).generate_list(count)
    conn.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    for doc in documents[:12]:
        conn.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (doc.entity_id, "database" if doc.label == 1 else "other"),
        )
    conn.execute(VIEW_DDL)
    conn.execute(f"SERVE VIEW labeled_papers WITH (shards = {shards})")
    return conn, documents


class TestSystemMetrics:
    def test_select_star_returns_samples(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        rows = conn.execute("SELECT * FROM system.metrics").fetchall()
        names = {row["name"] for row in rows}
        assert {"name", "kind", "value"} <= set(rows[0])
        assert "db.cost.simulated_seconds_total" in names
        assert "sql.statements_total" in names
        assert any(name.startswith("connection.") for name in names)
        conn.close()

    def test_where_pushdown_over_system_table(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        rows = conn.execute(
            "SELECT value FROM system.metrics WHERE name = 'sql.statements_total'"
        ).fetchall()
        assert len(rows) == 1
        conn.close()

    def test_system_table_scan_is_costless(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        before = conn.database.stats.simulated_seconds
        conn.execute("SELECT * FROM system.metrics").fetchall()
        assert conn.database.stats.simulated_seconds == before
        conn.close()

    def test_joining_a_system_table_is_rejected(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY, v text)")
        with pytest.raises(SQLPlanningError, match="system table"):
            conn.execute("SELECT t.v FROM t JOIN system.metrics ON t.v = name")
        conn.close()


class TestServedViewObservability:
    def test_served_views_row_reflects_live_server(self):
        conn, _ = build_served_connection()
        rows = conn.execute("SELECT * FROM system.served_views").fetchall()
        assert len(rows) == 1
        row = rows[0]
        assert row["view"] == "labeled_papers"
        assert row["num_shards"] == 2
        assert row["entities"] == 60
        conn.execute("STOP SERVING labeled_papers")
        assert conn.execute("SELECT * FROM system.served_views").fetchall() == []
        conn.close()

    def test_slow_served_statement_has_complete_span_tree(self):
        """Acceptance: a forced-slow statement over a live served view lands in
        the slow log with parse → plan → execute → shard spans, and its
        per-node actual seconds equal EXPLAIN ANALYZE's."""
        conn, _ = build_served_connection()
        conn.database.obs.slow_query_seconds = 0.0
        # The populated class: the default featurizer puts every paper in
        # 'other', and an eager read of an empty class scans an empty eps
        # slice, which costs nothing.
        sql = "SELECT * FROM labeled_papers WHERE class = 'other'"
        conn.execute(sql).fetchall()

        slow_rows = conn.execute("SELECT * FROM system.slow_queries").fetchall()
        mine = [row for row in slow_rows if row["sql"] == sql]
        assert mine, "forced-slow statement missing from system.slow_queries"
        assert mine[0]["simulated_seconds"] > 0

        trace = next(
            t for t in reversed(conn.database.obs.slow_queries.snapshot()) if t.sql == sql
        )
        names = [span.name for span in trace.spans()]
        assert names[0] == "statement"
        assert "parse" in names and "plan" in names and "execute" in names
        assert any(name.startswith("serve.") for name in names)
        assert any(name.startswith("shard[") for name in names)

        analyze = conn.execute(f"EXPLAIN ANALYZE {sql}").fetchall()
        actuals = {row["node"].strip(): row["actual_seconds"] for row in analyze}
        node_spans = [s for s in trace.spans() if s.name.startswith("node:")]
        assert node_spans
        for span in node_spans:
            assert span.simulated_seconds == pytest.approx(actuals[span.name[5:]])
        conn.close()

    def test_traces_table_exposes_span_rows(self):
        conn, _ = build_served_connection()
        conn.execute("SELECT * FROM labeled_papers").fetchall()
        rows = conn.execute(
            "SELECT * FROM system.traces WHERE name = 'statement'"
        ).fetchall()
        assert rows
        assert {"trace_id", "span_id", "parent_id", "simulated_seconds"} <= set(rows[0])
        conn.execute("STOP SERVING labeled_papers")
        conn.close()

    def test_served_point_read_has_one_batcher_round_span(self):
        """A lone reader runs its round on its own thread; the round's span
        hangs under the statement's execute span, once."""
        conn, documents = build_served_connection()
        conn.execute(
            "SELECT class FROM labeled_papers WHERE id = ?", (documents[0].entity_id,)
        ).fetchall()
        trace = conn.database.obs.traces.snapshot()[-1]
        spans = {span.span_id: span for span in trace.spans()}
        rounds = [span for span in spans.values() if span.name == "batcher.round"]
        assert len(rounds) == 1
        assert spans[rounds[0].parent_id].name == "execute"
        assert rounds[0].detail == "coalesced 1 requests into 1 keys"
        conn.execute("STOP SERVING labeled_papers")
        conn.close()

    def test_serve_metrics_appear_and_disappear_with_lifecycle(self):
        conn, _ = build_served_connection()
        conn.execute("SELECT * FROM labeled_papers").fetchall()
        names = {
            row["name"] for row in conn.execute("SELECT * FROM system.metrics").fetchall()
        }
        assert "serve.labeled_papers.epoch" in names
        assert "serve.labeled_papers.batcher.requests_total" in names
        conn.execute("STOP SERVING labeled_papers")
        names = {
            row["name"] for row in conn.execute("SELECT * FROM system.metrics").fetchall()
        }
        assert not any(name.startswith("serve.") for name in names)
        conn.close()


class TestPlanCacheTable:
    def test_one_row_per_live_connection(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        conn.execute("SELECT * FROM t").fetchall()  # miss
        conn.execute("SELECT * FROM t").fetchall()  # hit
        rows = conn.execute("SELECT * FROM system.plan_cache").fetchall()
        mine = [row for row in rows if row["connection"] == conn.name]
        assert len(mine) == 1
        assert mine[0]["hits_total"] >= 1
        assert mine[0]["misses_total"] >= 1
        conn.close()
