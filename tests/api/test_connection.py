"""The ``repro.connect()`` facade: cursors, per-connection sessions, lifecycle."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import ConfigurationError
from repro.workloads.synth_text import SparseCorpusGenerator

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW labeled_papers KEY id "
    "ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label "
    "EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)


def build_connection(count: int = 60, seed: int = 23):
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
    conn.execute(VIEW_DDL)
    return conn, documents


class TestCursor:
    def test_execute_returns_cursor_with_rows(self):
        conn, documents = build_connection()
        cursor = conn.execute("SELECT id FROM papers ORDER BY id LIMIT 3")
        assert cursor.rowcount == 3
        assert cursor.description == ["id"]
        assert cursor.fetchone() == {"id": documents[0].entity_id}
        assert len(cursor.fetchall()) == 2
        assert cursor.fetchone() is None
        conn.close()

    def test_fetchmany_and_iteration(self):
        conn, _ = build_connection()
        cursor = conn.execute("SELECT id FROM papers ORDER BY id LIMIT 5")
        assert len(cursor.fetchmany(2)) == 2
        assert len(list(cursor)) == 3
        conn.close()

    def test_scalar_and_executemany(self):
        conn, _ = build_connection()
        conn.execute("CREATE TABLE notes (id integer PRIMARY KEY, body text)")
        cursor = conn.executemany(
            "INSERT INTO notes (id, body) VALUES (?, ?)", [(1, "a"), (2, "b")]
        )
        assert cursor.rowcount == 2
        assert conn.execute("SELECT COUNT(*) FROM notes").scalar() == 2
        conn.close()

    def test_cursor_context_manager_closes_cursor_only(self):
        conn, _ = build_connection(count=20)
        with conn.execute("SELECT id FROM papers ORDER BY id LIMIT 3") as cursor:
            assert cursor.description == ["id"]
            assert cursor.rowcount == 3
        assert cursor.closed
        assert cursor.fetchone() is None  # result set released
        with pytest.raises(ConfigurationError, match="cursor is closed"):
            cursor.execute("SELECT COUNT(*) FROM papers")
        with pytest.raises(ConfigurationError, match="cursor is closed"):
            cursor.executemany("INSERT INTO papers (id, title) VALUES (?, ?)", [(999, "x")])
        # The connection itself stays usable — only the cursor handle died.
        assert not conn.closed
        assert conn.execute("SELECT COUNT(*) FROM papers").scalar() == 20
        conn.close()

    def test_cursor_close_is_idempotent(self):
        conn, _ = build_connection(count=20)
        cursor = conn.execute("SELECT id FROM papers LIMIT 1")
        cursor.close()
        cursor.close()
        assert cursor.closed
        conn.close()

    def test_description_empty_for_dml(self):
        conn, _ = build_connection(count=20)
        cursor = conn.execute("CREATE TABLE d (id integer PRIMARY KEY)")
        assert cursor.description == []
        cursor = conn.execute("INSERT INTO d (id) VALUES (7)")
        assert cursor.description == []
        assert cursor.rowcount == 1
        conn.close()


class TestSessions:
    def test_sql_read_your_writes(self):
        conn, documents = build_connection()
        conn.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        for doc in documents[:20]:
            conn.execute(
                "INSERT INTO example_papers (id, label) VALUES (?, ?)",
                (doc.entity_id, "database" if doc.label == 1 else "other"),
            )
        # No explicit flush: the connection's session waits on its own writes.
        conn.execute("SELECT class FROM labeled_papers WHERE id = ?", (documents[0].entity_id,))
        session = conn.session("labeled_papers")
        assert session.last_epoch >= 1
        server = conn.engine.view("labeled_papers").server
        assert session.last_epoch <= server.epoch
        conn.close()

    def test_two_connections_are_independent_timelines(self):
        conn, documents = build_connection()
        conn.execute("SERVE VIEW labeled_papers")
        other = repro.connect(engine=conn.engine)
        doc = documents[0]
        conn.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)", (doc.entity_id, "database")
        )
        conn.execute("SELECT class FROM labeled_papers WHERE id = ?", (doc.entity_id,))
        assert conn.session("labeled_papers") is not other.session("labeled_papers")
        other.close()
        # Closing a wrapping connection must not stop the serving.
        assert conn.engine.view("labeled_papers").server is not None
        conn.close()
        assert conn.engine.view("labeled_papers").server is None

    def test_scan_reads_wait_for_own_writes(self):
        conn, documents = build_connection()
        conn.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        doc = documents[0]
        conn.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)", (doc.entity_id, "database")
        )
        # A full-view SELECT (scan-shaped) must also wait for the pending
        # write before answering — not just point/members/topk reads.
        conn.execute("SELECT id, class FROM labeled_papers")
        session = conn.session("labeled_papers")
        assert session._pending is None  # the scan consumed the ticket
        assert session.last_epoch >= 1
        conn.close()

    def test_session_requires_serving(self):
        conn, _ = build_connection(count=20)
        with pytest.raises(ConfigurationError, match="not being served"):
            conn.session("labeled_papers")
        conn.close()


class TestLifecycle:
    def test_close_quiesces_served_views_and_is_idempotent(self):
        conn, _ = build_connection(count=30)
        conn.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
        assert conn.engine.view("labeled_papers").server is not None
        conn.close()
        assert conn.engine.view("labeled_papers").server is None
        conn.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            conn.execute("SELECT COUNT(*) FROM papers")

    def test_context_manager_closes(self):
        with build_connection(count=20)[0] as conn:
            conn.execute("SERVE VIEW labeled_papers")
        assert conn.closed
        assert conn.engine.view("labeled_papers").server is None

    def test_connect_argument_validation(self):
        conn, _ = build_connection(count=20)
        other_db = repro.Database()
        with pytest.raises(ConfigurationError):
            repro.connect(database=other_db, engine=conn.engine)
        with pytest.raises(ConfigurationError):
            repro.connect(engine=conn.engine, architecture="ondisk")
        with pytest.raises(ConfigurationError):
            repro.connect(database=other_db, cost_model=repro.CostModel())
        conn.close()

    def test_connect_over_existing_database(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        conn = repro.connect(database=db)
        assert conn.database is db
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0
        conn.close()



def model_bits(model) -> tuple:
    """A model as exact bits: ordered ``(index, value.hex())`` weights, bias, version."""
    return [(i, v.hex()) for i, v in model.weights.items()], model.bias.hex(), model.version


class TestModelValue:
    def test_a_held_view_model_never_changes_under_its_holder(self):
        """A model version is a value: an ``INSERT`` into the examples table
        makes the view a new model and leaves the one a caller holds alone."""
        conn, documents = build_connection()
        view = conn.engine.view("labeled_papers")
        held = view.model
        before = model_bits(held)
        conn.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (documents[0].entity_id, "database"),
        )
        assert view.model.version == 1 and view.model is not held
        assert model_bits(held) == before
        assert held.version == 0
        conn.close()
