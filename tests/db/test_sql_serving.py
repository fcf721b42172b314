"""The declarative serving surface: SERVE / STOP SERVING / CHECKPOINT /
RESTORE / EXPLAIN statements and SELECT routing through the ViewServer."""

from __future__ import annotations

import gc
import os
import threading
import weakref

import pytest

import repro
from repro.core.engine import HazyEngine
from repro.db.database import Database
from repro.db.sql.ast import (
    CheckpointView,
    Explain,
    RestoreView,
    Select,
    ServeView,
    StopServing,
)
from repro.db.sql.parser import parse
from repro.exceptions import (
    ConfigurationError,
    MaintenanceError,
    SQLExecutionError,
    ViewDefinitionError,
)
from repro.workloads.synth_text import SparseCorpusGenerator

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW labeled_papers KEY id "
    "ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label "
    "EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)


def build_portal(count: int = 80, seed: int = 11, **engine_options):
    db = Database()
    documents = add_papers(db, count, seed)
    engine = HazyEngine(db, **engine_options)
    add_view(db, documents)
    return db, engine, documents


def owned_portal(count: int = 80, seed: int = 11):
    """``build_portal``'s portal behind a connection that owns its engine, so
    that closing the connection stops every view it serves."""
    owner = repro.connect()
    documents = add_papers(owner.database, count, seed)
    add_view(owner.database, documents)
    return owner, documents


def add_papers(db, count: int, seed: int) -> list:
    """The base tables and ``count`` papers."""
    db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    db.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    db.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    db.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    documents = SparseCorpusGenerator(
        vocabulary_size=300, nonzeros_per_document=10, positive_fraction=0.4, seed=seed
    ).generate_list(count)
    db.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    return documents


def add_view(db, documents) -> None:
    """The view ``labeled_papers``, then its first 30 papers as examples."""
    db.execute(VIEW_DDL)
    for doc in documents[:30]:
        db.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (doc.entity_id, "database" if doc.label == 1 else "other"),
        )


def open_files_under(directory) -> list[str]:
    """The files under ``directory`` this process holds open."""
    names = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            names.append(os.readlink(f"/proc/self/fd/{fd}"))
        except FileNotFoundError:  # the descriptor ``listdir`` itself held
            continue
    return [name for name in names if name.startswith(f"{directory}{os.sep}")]


class TestParsing:
    def test_serve_view_defaults(self):
        statement = parse("SERVE VIEW labeled_papers")
        assert isinstance(statement, ServeView)
        assert statement.view == "labeled_papers"
        assert statement.options == {}

    def test_serve_view_with_options(self):
        statement = parse("SERVE VIEW v WITH (shards = 8, wal = '/tmp/wal')")
        assert statement.options == {"shards": 8, "wal": "/tmp/wal"}

    def test_stop_serving(self):
        statement = parse("STOP SERVING v;")
        assert isinstance(statement, StopServing)
        assert statement.view == "v"

    def test_checkpoint_view(self):
        statement = parse("CHECKPOINT VIEW v TO '/tmp/ck'")
        assert isinstance(statement, CheckpointView)
        assert (statement.view, statement.path) == ("v", "/tmp/ck")

    def test_restore_view_with_options(self):
        statement = parse("RESTORE VIEW v FROM '/tmp/ck' WITH (shards = 32)")
        assert isinstance(statement, RestoreView)
        assert statement.path == "/tmp/ck"
        assert statement.options == {"shards": 32}

    def test_explain_wraps_any_statement(self):
        statement = parse("EXPLAIN SELECT * FROM t WHERE id = 3")
        assert isinstance(statement, Explain)
        assert isinstance(statement.statement, Select)


class TestExecutionWithoutEngine:
    def test_serving_statements_require_engine(self):
        db = Database()
        for sql in (
            "SERVE VIEW v",
            "STOP SERVING v",
            "CHECKPOINT VIEW v TO '/tmp/x'",
            "RESTORE VIEW v FROM '/tmp/x'",
        ):
            with pytest.raises(SQLExecutionError, match="requires a Hazy engine"):
                db.execute(sql)


class TestServingLifecycle:
    def test_serve_select_stop_roundtrip(self):
        db, engine, documents = build_portal()
        row = db.execute("SERVE VIEW labeled_papers WITH (shards = 2)").rows[0]
        assert row["status"] == "serving"
        assert row["shards"] == 2
        view = engine.view("labeled_papers")
        assert view.server is not None

        # Point lookup routes through the batcher; answer matches the server.
        doc = documents[0]
        sql_class = db.execute(
            "SELECT class FROM labeled_papers WHERE id = ?", (doc.entity_id,)
        ).scalar()
        assert sql_class == view.from_binary_label(view.server.label_of(doc.entity_id))

        # All Members scatter/gathers; count matches the server's view.
        count = db.execute("SELECT COUNT(*) FROM labeled_papers WHERE class = 'database'").scalar()
        assert count == len(view.server.all_members(1))

        # Top-k via the margin virtual column.
        ranked = db.execute(
            "SELECT id, margin FROM labeled_papers ORDER BY margin DESC LIMIT 3"
        ).rows
        assert [r["id"] for r in ranked] == [eid for eid, _ in view.server.top_k(3, 1)]

        # Ascending margin order is NOT a top-k read (top_k answers highest
        # margins only); it must not silently return the same rows reversed.
        with pytest.raises(SQLExecutionError, match="ORDER BY"):
            db.execute("SELECT id FROM labeled_papers ORDER BY margin ASC LIMIT 3")

        stopped = db.execute("STOP SERVING labeled_papers").rows[0]
        assert stopped["status"] == "stopped"
        assert view.server is None
        # Reads still work through the direct maintainer afterwards.
        assert db.execute("SELECT COUNT(*) FROM labeled_papers").scalar() == len(documents)

    def test_serve_unknown_option_rejected(self):
        db, engine, _ = build_portal(count=20)
        with pytest.raises(ConfigurationError, match="unknown serving option"):
            db.execute("SERVE VIEW labeled_papers WITH (bogus = 1)")
        assert engine.view("labeled_papers").server is None

    @pytest.mark.parametrize(
        "options, message",
        [
            # One spelling per option: the old aliases are gone.
            ("num_shards = 2", "unknown serving option 'num_shards'"),
            ("read_batch_wait_s = 0.1", "unknown serving option 'read_batch_wait_s'"),
            ("wal_dir = 'somewhere'", "unknown serving option 'wal_dir'"),
            ("shards = true", "option 'shards' expects an integer, got True"),
            ("shards = 2.5", "option 'shards' expects an integer, got 2.5"),
            ("epoch_history = 4", "unknown serving option 'epoch_history'"),
            ("wal = 3", "option 'wal' expects a string, got 3"),
            ("wal = ''", "option 'wal' must not be empty"),
            # A read round never waits and drains a fixed 64 keys: nothing configures it.
            ("max_wait_s = 0.001", "unknown serving option 'max_wait_s'"),
            ("adaptive_batching = true", "unknown serving option 'adaptive_batching'"),
            ("max_read_batch = 64", "unknown serving option 'max_read_batch'"),
        ],
    )
    def test_serve_option_names_and_types(self, options, message):
        db, engine, _ = build_portal(count=20)
        with pytest.raises(ConfigurationError, match=message):
            db.execute(f"SERVE VIEW labeled_papers WITH ({options})")
        assert engine.view("labeled_papers").server is None

    def test_every_serving_option_is_accepted_under_its_one_name(self, tmp_path):
        db, engine, _ = build_portal(count=20)
        db.execute(f"SERVE VIEW labeled_papers WITH (shards = 2, wal = '{tmp_path / 'wal'}')")
        server = engine.view("labeled_papers").server
        assert len(server.shards) == 2 and server.wal is not None
        assert sorted(engine._SERVER_OPTIONS) == ["shards", "wal"]
        db.execute("STOP SERVING labeled_papers")

    def test_stop_serving_unserved_view_fails(self):
        db, _, _ = build_portal(count=20)
        with pytest.raises(ViewDefinitionError, match="not being served"):
            db.execute("STOP SERVING labeled_papers")

    def test_checkpoint_requires_serving(self, tmp_path):
        db, _, _ = build_portal(count=20)
        with pytest.raises(ViewDefinitionError, match="not being served"):
            db.execute(f"CHECKPOINT VIEW labeled_papers TO '{tmp_path / 'ck'}'")

    def test_checkpoint_and_restore_via_sql(self, tmp_path):
        db, engine, documents = build_portal()
        db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        directory = tmp_path / "ck"
        info = db.execute(f"CHECKPOINT VIEW labeled_papers TO '{directory}'").rows[0]
        assert info["entities"] == len(documents)
        before = db.execute("SELECT id, class FROM labeled_papers ORDER BY id").rows
        db.execute("STOP SERVING labeled_papers")

        # A fresh process: same base tables, new engine, RESTORE instead of CREATE.
        db2 = Database()
        db2.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
        db2.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
        db2.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
        db2.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
        db2.executemany(
            "INSERT INTO papers (id, title) VALUES (?, ?)",
            [(doc.entity_id, doc.text) for doc in documents],
        )
        db2.executemany(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            [(doc.entity_id, "database" if doc.label == 1 else "other") for doc in documents[:30]],
        )
        engine2 = HazyEngine(db2)
        restored = db2.execute(f"RESTORE VIEW labeled_papers FROM '{directory}'").rows[0]
        assert restored["status"] == "serving"
        after = db2.execute("SELECT id, class FROM labeled_papers ORDER BY id").rows
        assert after == before
        assert engine2.view("labeled_papers").server is not None
        db2.execute("STOP SERVING labeled_papers")


def plan_nodes(db, sql: str) -> list[str]:
    """The EXPLAIN node labels, indentation stripped."""
    return [row["node"].strip() for row in db.execute(sql).rows]


class TestExplain:
    def test_explain_table_point_and_scan(self):
        db, _, documents = build_portal(count=20)
        point = db.execute("EXPLAIN SELECT * FROM papers WHERE id = 1").rows
        assert [row["node"].strip() for row in point] == [
            "Filter(id = 1)",
            "IndexRange(papers.id = 1)",
        ]
        assert point[1]["estimated_seconds"] > 0
        scan = db.execute("EXPLAIN SELECT * FROM papers").rows
        assert [row["node"].strip() for row in scan] == ["SeqScan(papers)"]
        # The estimates are the cost model's, not guesses: a scan prices the
        # table's actual pages and tuples, a point read one random page.
        table = db.table("papers")
        expected = db.cost_model.statement_overhead + db.cost_model.scan_cost(
            table.page_count(), table.row_count()
        )
        assert scan[0]["estimated_seconds"] == pytest.approx(expected)

    def test_explain_view_unserved_vs_served(self):
        db, _, _ = build_portal(count=20)
        unserved = plan_nodes(db, "EXPLAIN SELECT class FROM labeled_papers WHERE id = 1")
        assert unserved == ["Project(class)", "ViewPointRead(labeled_papers.id = 1)"]

        db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        served = plan_nodes(db, "EXPLAIN SELECT class FROM labeled_papers WHERE id = 1")
        assert served[-1] == "ServedPointRead(labeled_papers.id = 1)"
        members = plan_nodes(
            db, "EXPLAIN SELECT COUNT(*) FROM labeled_papers WHERE class = 'database'"
        )
        assert members == [
            "Aggregate(count)",
            "ServedScatterGather(labeled_papers, class = 'database')",
        ]
        topk = plan_nodes(db, "EXPLAIN SELECT id FROM labeled_papers ORDER BY margin DESC LIMIT 5")
        assert topk == ["Project(id)", "TopK(k=5, by=margin desc)"]
        db.execute("STOP SERVING labeled_papers")

    def test_explain_is_deterministic_and_side_effect_free(self):
        db, _, _ = build_portal(count=20)
        first = db.execute("EXPLAIN SELECT class FROM labeled_papers WHERE id = 1").rows
        second = db.execute("EXPLAIN SELECT class FROM labeled_papers WHERE id = 1").rows
        assert first == second

    def test_explain_dml(self):
        db, _, _ = build_portal(count=20)
        row = db.execute("EXPLAIN INSERT INTO papers (id, title) VALUES (999, 'x')").rows[0]
        assert row["node"] == "INSERT(papers)"
        # Nothing was inserted.
        assert db.execute("SELECT COUNT(*) FROM papers WHERE id = 999").scalar() == 0


class TestServedSessionSemantics:
    @pytest.mark.parametrize("wal", [False, True], ids=["no wal", "wal"])
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("stop", ["STOP SERVING", "engine.stop_serving", "owner close()"])
    def test_a_connection_does_not_keep_a_stopped_server_alive(self, stop, shards, wal, tmp_path):
        """A connection's session for a served view holds its server weakly:
        once the view stops — by statement, by the engine, or by closing the
        connection that owns the engine — the server, each shard and each
        store are collected though another connection read through it, its
        thread is gone and its WAL is closed, and a session kept from then
        answers as a closed server does; served again, the view gives the
        connection a fresh session that reads its own writes."""
        owner, documents = owned_portal(count=40)
        engine = owner.engine
        conn = repro.connect(engine=engine)
        wal_dir = tmp_path / "wal"
        options = f"shards = {shards}" + (f", wal = '{wal_dir}'" if wal else "")
        sql = "SELECT class FROM labeled_papers WHERE id = ?"
        try:
            owner.execute(f"SERVE VIEW labeled_papers WITH ({options})")
            server = engine.view("labeled_papers").server
            shard_list = server.shards.shards
            released = [weakref.ref(server)]
            released += [weakref.ref(shard) for shard in shard_list]
            released += [weakref.ref(shard.maintainer.store) for shard in shard_list]
            del server, shard_list
            served = conn.execute(sql, (7,)).scalar()
            kept = conn.session("labeled_papers")
            if stop == "STOP SERVING":
                owner.execute("STOP SERVING labeled_papers")
            elif stop == "engine.stop_serving":
                engine.stop_serving("labeled_papers")
            else:
                owner.close()
            gc.collect()
            assert [ref() for ref in released] == [None] * len(released)
            assert "hazy-maintenance" not in [thread.name for thread in threading.enumerate()]
            assert open_files_under(wal_dir) == []
            with pytest.raises(MaintenanceError, match="^server is closed$"):
                kept.label_of(7)
            assert conn.execute(sql, (7,)).scalar() == served

            conn.execute(f"SERVE VIEW labeled_papers WITH (shards = {shards})")
            doc = documents[35]  # not a training example yet
            conn.execute(
                "INSERT INTO example_papers (id, label) VALUES (?, 'database')",
                (doc.entity_id,),
            )
            session = conn.session("labeled_papers")
            assert conn.execute(sql, (doc.entity_id,)).scalar() in ("database", "other")
            assert session.last_epoch >= 1  # the read waited for the write's epoch
            conn.execute("STOP SERVING labeled_papers")
        finally:
            conn.close()
            owner.close()

    def test_sql_read_your_writes_through_context(self):
        db, engine, documents = build_portal()
        db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        from repro.serve.sync import SessionRegistry

        context = SessionRegistry()
        doc = documents[40]
        # The executor is where a connection hands its context in.
        db.executor.execute(
            parse("INSERT INTO example_papers (id, label) VALUES (?, ?)"),
            (doc.entity_id, "database" if doc.label == 1 else "other"),
            context,
        )
        server = engine.view("labeled_papers").server
        ticket = server.take_session_ticket()
        assert ticket is not None  # the diverted trigger parked the write's ticket
        context.note_write("labeled_papers", server, ticket)
        db.executor.execute(
            parse("SELECT class FROM labeled_papers WHERE id = ?"), (doc.entity_id,), context
        )
        session = context.session_for("labeled_papers", server)
        assert session.last_epoch >= 1  # the read waited for the write's epoch
        db.execute("STOP SERVING labeled_papers")
