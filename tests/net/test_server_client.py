"""Socket end-to-end: the DB-API surface, errors, sessions, observability."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ConfigurationError,
    ConnectionClosedError,
    NetworkError,
    ProtocolError,
    SQLExecutionError,
    SQLPlanningError,
    SQLSyntaxError,
)
from repro.net import SQLServer, connect
from repro.obs import render_text

from tests.net.conftest import TEST_TIMEOUT_S


@pytest.fixture
def client(server):
    with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as conn:
        yield conn


class TestDBAPISurface:
    def test_select_fetchall(self, client):
        rows = client.execute("SELECT * FROM items ORDER BY id LIMIT 3").fetchall()
        assert rows == [
            {"id": 1, "name": "item-1", "qty": 10},
            {"id": 2, "name": "item-2", "qty": 20},
            {"id": 3, "name": "item-3", "qty": 30},
        ]

    def test_parameters_and_scalar(self, client):
        assert client.execute("SELECT name FROM items WHERE id = ?", (7,)).scalar() == "item-7"

    def test_fetchone_fetchmany_iteration(self, client):
        cursor = client.execute("SELECT id FROM items ORDER BY id")
        assert cursor.fetchone() == {"id": 1}
        assert cursor.fetchmany(2) == [{"id": 2}, {"id": 3}]
        assert [row["id"] for row in cursor] == list(range(4, 21))
        assert cursor.fetchone() is None

    def test_description_and_rowcount(self, client):
        cursor = client.execute("SELECT id, name FROM items WHERE id <= 5 ORDER BY id")
        assert cursor.description == ["id", "name"]
        assert cursor.rowcount == 5

    def test_ddl_dml_round_trip(self, client):
        client.execute("CREATE TABLE scratch (k integer PRIMARY KEY, v text)")
        assert client.execute("INSERT INTO scratch (k, v) VALUES (1, 'a')").rowcount == 1
        assert client.execute("UPDATE scratch SET v = 'b' WHERE k = 1").rowcount == 1
        assert client.execute("SELECT v FROM scratch WHERE k = 1").scalar() == "b"
        assert client.execute("DELETE FROM scratch WHERE k = 1").rowcount == 1
        client.execute("DROP TABLE scratch")

    def test_executemany(self, client):
        client.execute("CREATE TABLE bulk (k integer PRIMARY KEY, v integer)")
        cursor = client.executemany(
            "INSERT INTO bulk (k, v) VALUES (?, ?)", [(i, i * i) for i in range(30)]
        )
        assert cursor.rowcount == 30
        assert client.execute("SELECT COUNT(*) FROM bulk").scalar() == 30
        client.execute("DROP TABLE bulk")

    def test_results_match_in_process(self, backend, client):
        for sql in (
            "SELECT * FROM items ORDER BY id",
            "SELECT COUNT(*) FROM items",
            "SELECT name FROM items WHERE qty > 150 ORDER BY id",
        ):
            assert client.execute(sql).fetchall() == backend.execute(sql).fetchall()

    def test_cursor_context_manager(self, client):
        with client.cursor() as cursor:
            assert cursor.execute("SELECT COUNT(*) FROM items").scalar() == 20

    def test_ping(self, client):
        assert client.ping() is True


class TestErrors:
    def test_syntax_error_crosses_with_diagnostics(self, client):
        with pytest.raises(SQLSyntaxError) as excinfo:
            client.execute("SELEC * FROM items")
        assert excinfo.value.position == 0
        assert excinfo.value.token == "SELEC"

    def test_planning_error_crosses_with_diagnostics(self, client):
        with pytest.raises(SQLPlanningError) as excinfo:
            client.execute("SELECT nonexistent FROM items")
        assert excinfo.value.token == "nonexistent"
        assert excinfo.value.position is not None

    def test_execution_error_crosses(self, client):
        with pytest.raises(SQLExecutionError):
            client.execute("SELECT * FROM no_such_table_anywhere")

    def test_incomparable_range_bounds_cross_as_the_documented_error(self, client):
        client.execute("CREATE INDEX ix_qty ON items (qty)")
        with pytest.raises(SQLExecutionError) as raised:
            client.execute("SELECT id FROM items WHERE qty > 5 AND qty > 'a'")
        assert str(raised.value) == "cannot evaluate '>' between a int column value and a str bound"
        assert client.usable

    def test_executemany_error_crosses(self, client):
        with pytest.raises(SQLSyntaxError) as excinfo:
            client.executemany("INSRT INTO items VALUES (?)", [(1,)])
        assert excinfo.value.token == "INSRT"

    def test_connection_survives_errors(self, client):
        for _ in range(3):
            with pytest.raises(SQLSyntaxError):
                client.execute("NOT SQL AT ALL")
        assert client.execute("SELECT COUNT(*) FROM items").scalar() == 20
        assert client.usable

    def test_unknown_op_is_structured_error_not_poison(self, client):
        with pytest.raises(NetworkError):
            client._exchange({"op": "mystery"})
        assert client.usable  # a structured error response keeps framing intact

    def test_oversize_result_fails_the_statement_not_the_connection(
        self, server, backend, client, monkeypatch
    ):
        import repro.net.protocol as protocol

        backend.execute("CREATE TABLE t (id integer PRIMARY KEY, name text)")
        backend.executemany(
            "INSERT INTO t (id, name) VALUES (?, ?)", [(i, f"row-{i:040d}") for i in range(50)]
        )
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2_000)
        with pytest.raises(ProtocolError) as excinfo:
            client.execute("SELECT * FROM t")
        assert "exceeds the 2000-byte limit" in str(excinfo.value)
        # The same connection answers its next statement.
        assert client.usable
        assert client.execute("SELECT COUNT(*) FROM t").scalar() == 50
        stats = server.stats()
        assert stats["errors_total"] == 1
        assert stats["reaped_total"] == 0

    def test_closed_client_raises_locally(self, server):
        conn = connect(server.host, server.port, timeout=TEST_TIMEOUT_S)
        conn.close()
        with pytest.raises(ConfigurationError):
            conn.execute("SELECT 1")

    def test_dial_refused_port(self):
        with pytest.raises(ConnectionClosedError):
            connect("127.0.0.1", 1, timeout=2.0)


class TestSessions:
    def test_read_your_writes_per_wire_connection(self, served_server):
        server, _, documents = served_server
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
            doc = documents[50]
            label = "database" if doc.label == 1 else "other"
            client.execute(
                "INSERT INTO example_papers (id, label) VALUES (?, ?)",
                (doc.entity_id, label),
            )
            # The same wire connection observes its own write immediately.
            row = client.execute(
                "SELECT class FROM labeled_papers WHERE id = ?", (doc.entity_id,)
            ).fetchone()
            assert row is not None

    def test_a_ranked_read_of_zero_rows_crosses_as_no_rows(self, served_server):
        """``ORDER BY margin DESC LIMIT 0`` on a served view used to come back
        as an ``InternalError`` (a raw ``IndexError`` on every shard)."""
        server, _, _ = served_server
        ranked = "SELECT id, margin FROM labeled_papers ORDER BY margin DESC LIMIT {}"
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
            assert client.execute(ranked.format(0)).fetchall() == []
            assert len(client.execute(ranked.format(2)).fetchall()) == 2

    def test_connections_have_independent_prepared_caches(self, server):
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as first:
            with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as second:
                assert first.server_connection != second.server_connection
                for client in (first, second):
                    for key in (3, 4, 5):
                        assert (
                            client.execute(
                                "SELECT qty FROM items WHERE id = ?", (key,)
                            ).scalar()
                            == key * 10
                        )


class TestObservability:
    def test_system_connections_roster(self, server, backend):
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
            client.execute("SELECT COUNT(*) FROM items")
            rows = client.execute("SELECT * FROM system.connections").fetchall()
            assert len(rows) == 1
            row = rows[0]
            assert row["connection"] == client.server_connection
            assert row["statements_total"] >= 1
            assert row["state"] == "executing"  # it is executing this query
            assert row["lane"] == "point"  # system-table reads ride the fast lane
        # After disconnect the roster empties (in-process view, post-goodbye).
        deadline = 50
        while server.connection_count() and deadline:
            import time

            time.sleep(0.02)
            deadline -= 1
        assert backend.execute("SELECT * FROM system.connections").fetchall() == []

    def test_admission_and_server_metrics_in_registry(self, server, backend):
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
            client.execute("SELECT * FROM items")
            client.execute("SELECT qty FROM items WHERE id = ?", (2,))
            names = {
                row["name"]: row["value"]
                for row in backend.execute("SELECT * FROM system.metrics").fetchall()
            }
        assert names["net.admission.point.admitted_total"] >= 1
        assert names["net.admission.bulk.admitted_total"] >= 1
        assert names["net.server.connections_total"] >= 1
        assert names["net.server.statements_total"] >= 2

    def test_render_text_exposition(self, server, backend):
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
            client.execute("SELECT COUNT(*) FROM items")
            text = render_text(backend.database.obs.registry)
        # render_text flattens dots to Prometheus-style underscores.
        assert "net_admission_point_admitted_total" in text
        assert "net_server_connections_active" in text

    def test_close_unregisters_surfaces(self, backend):
        server = SQLServer(backend.engine).start()
        server.close()
        names = {
            row["name"] for row in backend.execute("SELECT * FROM system.metrics").fetchall()
        }
        assert not any(name.startswith("net.") for name in names)
        assert backend.execute("SELECT * FROM system.connections").fetchall() == []


class TestServerLifecycle:
    def test_capacity_refusal(self, backend):
        with SQLServer(backend.engine, max_connections=1) as server:
            with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as first:
                assert first.ping()
                with pytest.raises(NetworkError) as excinfo:
                    connect(server.host, server.port, timeout=TEST_TIMEOUT_S)
                assert "limit" in str(excinfo.value)
                assert server.stats()["refused_total"] == 1
            # The slot frees after disconnect; retry succeeds.
            deadline = 100
            while server.connection_count() and deadline:
                import time

                time.sleep(0.02)
                deadline -= 1
            with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as retry:
                assert retry.ping()

    def test_a_second_server_on_one_database_is_refused(self, server, backend):
        """The ``net.*`` providers and ``system.connections`` are per database:
        a second server would take them over, and its close would remove them
        from under the first.  It is refused, and the first keeps reporting."""
        second = SQLServer(backend.engine)
        with pytest.raises(ConfigurationError) as excinfo:
            second.start()
        assert server.name in str(excinfo.value)
        second.close()  # never started: a no-op that must not touch the first
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
            client.execute("SELECT COUNT(*) FROM items")
            rows = backend.execute("SELECT * FROM system.connections").fetchall()
            assert len(rows) == 1
            assert backend.database.obs.registry.value("net.server.statements_total") >= 1
            assert server.stats()["statements_total"] >= 1

    def test_a_server_that_fails_to_bind_leaves_the_database_free(self, backend):
        import socket

        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            with pytest.raises(OSError):
                SQLServer(backend.engine, port=taken.getsockname()[1]).start()
        with SQLServer(backend.engine) as server:
            with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
                assert client.ping()

    def test_close_is_idempotent_and_engine_survives(self, backend):
        server = SQLServer(backend.engine).start()
        server.close()
        server.close()
        assert backend.execute("SELECT COUNT(*) FROM items").scalar() == 20

    def test_protocol_version_mismatch_detected(self, server, monkeypatch):
        import repro.net.client as client_module

        monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 999)
        with pytest.raises(ProtocolError):
            client_module.connect(server.host, server.port, timeout=TEST_TIMEOUT_S)
