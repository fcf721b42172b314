"""The ``system.*`` virtual tables through the SQL front door."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import SQLExecutionError, SQLPlanningError
from repro.net import SQLServer, connect
from repro.workloads.synth_text import SparseCorpusGenerator

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW labeled_papers KEY id "
    "ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label "
    "EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)


def build_served_connection(count: int = 60, shards: int = 2, seed: int = 23, wal=None):
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
    wal_option = f", wal = '{wal}'" if wal is not None else ""
    conn.execute(f"SERVE VIEW labeled_papers WITH (shards = {shards}{wal_option})")
    return conn, documents


#: Every ``serve.<view>.*`` name of a 2-shard served view with a WAL.
SERVED_VIEW_METRICS = [
    "batcher.avg_batch",
    "batcher.largest_batch",
    "batcher.requests_total",
    "batcher.rounds_total",
    "cache.entries",
    "cache.hits_total",
    "cache.invalidations_total",
    "cache.misses_total",
    "checkpoint.bytes_total",
    "checkpoint.total",
    "checkpoint.wall_seconds_total",
    "entities",
    "epoch",
    "epochs_published_total",
    "maintenance.avg_ops_per_batch",
    "maintenance.backlog",
    "maintenance.backpressure_waits_total",
    "maintenance.batches_applied_total",
    "maintenance.ops_applied_total",
    "num_shards",
    "shard0.cache_entries",
    "shard0.cache_hits_total",
    "shard0.cache_invalidations_total",
    "shard0.cache_misses_total",
    "shard0.entities",
    "shard0.simulated_read_seconds_total",
    "shard0.simulated_seconds_total",
    "shard1.cache_entries",
    "shard1.cache_hits_total",
    "shard1.cache_invalidations_total",
    "shard1.cache_misses_total",
    "shard1.entities",
    "shard1.simulated_read_seconds_total",
    "shard1.simulated_seconds_total",
    "simulated_read_seconds_total",
    "simulated_seconds_total",
    "trigger_diverts_total",
    "wal.appended_bytes",
    "wal.appends_total",
    "wal.next_seq",
    "wal.pruned_segments_total",
    "wal.rotations_total",
    "wal.segments",
]


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

    def test_served_view_metrics_are_its_flat_stats(self, tmp_path):
        conn, documents = build_served_connection(wal=tmp_path / "wal")
        server = conn.engine.view("labeled_papers").server
        conn.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, 'other')",
            (documents[20].entity_id,),
        )
        server.flush(timeout=30)
        for doc in documents[:10]:
            conn.execute("SELECT class FROM labeled_papers WHERE id = ?", (doc.entity_id,))
        prefix = "serve.labeled_papers."
        mirrored = {
            row["name"].removeprefix(prefix): row["value"]
            for row in conn.execute("SELECT name, value FROM system.metrics").fetchall()
            if row["name"].startswith(prefix)
        }
        assert sorted(mirrored) == SERVED_VIEW_METRICS
        stats = server.stats()
        assert mirrored == {key: float(value) for key, value in stats.items()}
        assert stats["wal.next_seq"] == stats["wal.appends_total"] + 1
        assert stats["batcher.requests_total"] == 10
        row = conn.execute("SELECT * FROM system.served_views").fetchone()
        assert row == {
            "view": "labeled_papers",
            "epoch": stats["epoch"],
            "entities": stats["entities"],
            "num_shards": 2,
            "epochs_published_total": stats["epochs_published_total"],
            "trigger_diverts_total": stats["trigger_diverts_total"],
            "queue_backlog": stats["maintenance.backlog"],
            "batcher_requests_total": 10,
            "batcher_avg_batch": stats["batcher.avg_batch"],
            "cache_hits_total": stats["cache.hits_total"],
            "simulated_seconds_total": stats["simulated_seconds_total"],
        }
        conn.execute("STOP SERVING labeled_papers")
        conn.close()

    def test_checkpoint_io_shows_in_system_metrics(self, tmp_path):
        """After a full and an incremental checkpoint, ``checkpoint.*`` count
        both, the bytes both put on disk and the wall time they took."""
        conn, documents = build_served_connection()
        prefix = "serve.labeled_papers.checkpoint."

        def checkpoint_metrics() -> dict[str, float]:
            return {
                row["name"].removeprefix(prefix): row["value"]
                for row in conn.execute("SELECT name, value FROM system.metrics").fetchall()
                if row["name"].startswith(prefix)
            }

        def bytes_on_disk(directory) -> int:
            return sum(path.stat().st_size for path in directory.iterdir())

        assert checkpoint_metrics() == {"total": 0, "bytes_total": 0, "wall_seconds_total": 0}
        full = conn.execute(f"CHECKPOINT VIEW labeled_papers TO '{tmp_path / 'full'}'").fetchone()
        after_full = checkpoint_metrics()
        assert after_full["total"] == 1
        assert after_full["bytes_total"] == full["bytes"] == bytes_on_disk(tmp_path / "full")
        assert after_full["wall_seconds_total"] > 0
        conn.execute("INSERT INTO papers (id, title) VALUES (?, ?)", (900_001, documents[3].text))
        conn.engine.view("labeled_papers").server.flush(timeout=30)
        incremental = conn.execute(
            f"CHECKPOINT VIEW labeled_papers TO '{tmp_path / 'incremental'}' "
            "WITH (incremental = true)"
        ).fetchone()
        assert incremental["shards_written"] == 1
        after = checkpoint_metrics()
        assert after["total"] == 2
        assert after["bytes_total"] == full["bytes"] + incremental["bytes"]
        assert incremental["bytes"] == bytes_on_disk(tmp_path / "incremental")
        assert after["wall_seconds_total"] > after_full["wall_seconds_total"]
        conn.execute("STOP SERVING labeled_papers")
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


#: ``SELECT *`` column order of every ``system.*`` table: its producer's keys.
SYSTEM_TABLE_COLUMNS = {
    "metrics": ["name", "kind", "value"],
    "slow_queries": [
        "trace_id",
        "sql",
        "simulated_seconds",
        "wall_seconds",
        "spans",
        "threshold_seconds",
    ],
    "traces": [
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "simulated_seconds",
        "estimated_seconds",
        "wall_seconds",
        "rows",
        "detail",
        "sql",
    ],
    "plan_cache": [
        "hits_total",
        "misses_total",
        "invalidations_total",
        "entries",
        "capacity",
        "connection",
    ],
    "served_views": [
        "view",
        "epoch",
        "entities",
        "num_shards",
        "epochs_published_total",
        "trigger_diverts_total",
        "queue_backlog",
        "batcher_requests_total",
        "batcher_avg_batch",
        "cache_hits_total",
        "simulated_seconds_total",
    ],
    "connections": [
        "connection",
        "remote",
        "state",
        "lane",
        "statements_total",
        "point_statements_total",
        "bulk_statements_total",
        "errors_total",
        "connected_seconds",
    ],
}


def test_select_star_column_order_of_every_system_table():
    conn, _ = build_served_connection()
    conn.database.obs.slow_query_seconds = 0.0  # every statement lands in the slow log
    conn.execute("SELECT * FROM labeled_papers WHERE class = 'other'").fetchall()
    try:
        with SQLServer(conn.engine) as server:
            client = connect(server.host, server.port, timeout=15)
            client.execute("SELECT id FROM papers LIMIT 1").fetchall()
            for table, columns in SYSTEM_TABLE_COLUMNS.items():
                rows = conn.execute(f"SELECT * FROM system.{table}").fetchall()
                assert rows, table
                assert all(list(row) == columns for row in rows), table
            client.close()
    finally:
        conn.execute("STOP SERVING labeled_papers")
        conn.close()


def test_a_system_row_missing_a_column_is_an_execution_error():
    conn = repro.connect()
    rows = [{"a": 1, "b": 2}, {"a": 3}]
    conn.database.catalog.register_system_table("system.ragged", lambda: rows)
    with pytest.raises(SQLExecutionError, match="do not all carry column 'b'"):
        conn.execute("SELECT * FROM system.ragged")
    conn.close()
