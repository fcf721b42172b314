"""Ungraceful client death: the server must reap, release, stay consistent.

Three deaths are simulated with raw sockets (no polite ``goodbye`` anywhere):

* mid-statement — the client sends a query and vanishes before reading the
  response;
* mid-transaction-of-writes — the client dies with queued writes against a
  served view still in the maintenance pipeline;
* mid-frame — the client dies after sending half a frame.

In every case the server-side connection must close (releasing its view
sessions), the roster row must disappear, serving must continue for other
clients, and the view must stay consistent.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

from repro.net import connect
from repro.net.protocol import read_frame, write_frame
from repro.net.server import _Handler

from tests.net.conftest import TEST_TIMEOUT_S


def raw_dial(server) -> socket.socket:
    """Dial and swallow the hello frame; returns the bare socket."""
    sock = socket.create_connection((server.host, server.port), timeout=TEST_TIMEOUT_S)
    sock.settimeout(TEST_TIMEOUT_S)
    hello = read_frame(sock)
    assert hello["protocol"] == 1
    return sock


def wait_for_roster(server, count: int, timeout: float = TEST_TIMEOUT_S) -> None:
    deadline = time.perf_counter() + timeout
    while len(server.connection_rows()) != count:
        assert time.perf_counter() < deadline, (
            f"roster stuck at {len(server.connection_rows())}, wanted {count}"
        )
        time.sleep(0.02)


class TestMidStatementDeath:
    def test_server_reaps_and_keeps_serving(self, server, backend):
        victim = raw_dial(server)
        wait_for_roster(server, 1)
        # Send a statement, then die without reading the response.
        write_frame(victim, {"op": "query", "sql": "SELECT * FROM items"})
        victim.close()
        wait_for_roster(server, 0)
        # The roster row is gone and the engine still answers other clients.
        assert backend.execute("SELECT * FROM system.connections").fetchall() == []
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as other:
            assert other.execute("SELECT COUNT(*) FROM items").scalar() == 20


class TestMidFrameDeath:
    def test_truncated_frame_reaps(self, server):
        victim = raw_dial(server)
        wait_for_roster(server, 1)
        before = server.stats()["reaped_total"]
        # A length prefix promising 500 bytes, then death after 5.
        victim.sendall(struct.pack(">I", 500) + b"x" * 5)
        victim.close()
        wait_for_roster(server, 0)
        assert server.stats()["reaped_total"] == before + 1

    def test_deeply_nested_frame_reaps_without_killing_the_thread(self, server, monkeypatch):
        died: list[threading.ExceptHookArgs] = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        victim = raw_dial(server)
        wait_for_roster(server, 1)
        before = server.stats()["reaped_total"]
        payload = b"[" * 200_000
        victim.sendall(struct.pack(">I", len(payload)) + payload)
        wait_for_roster(server, 0)
        victim.close()
        assert server.stats()["reaped_total"] == before + 1
        assert died == []
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as other:
            assert other.execute("SELECT COUNT(*) FROM items").scalar() == 20

    def test_the_reap_is_counted_when_the_roster_drops(self, server, monkeypatch):
        """A slow teardown must not leave the roster at 0 with the old count."""
        release = threading.Event()
        teardown = _Handler.teardown

        def slow_teardown(handler):
            release.wait(TEST_TIMEOUT_S)
            teardown(handler)

        monkeypatch.setattr(_Handler, "teardown", slow_teardown)
        try:
            victim = raw_dial(server)
            wait_for_roster(server, 1)
            before = server.stats()["reaped_total"]
            victim.sendall(struct.pack(">I", 500) + b"x" * 5)
            victim.close()
            wait_for_roster(server, 0)
            assert server.stats()["reaped_total"] == before + 1
        finally:
            release.set()

    def test_abrupt_close_without_goodbye_is_not_counted_as_reap(self, server):
        victim = raw_dial(server)
        wait_for_roster(server, 1)
        before = server.stats()["reaped_total"]
        victim.close()  # clean EOF between frames: torn down, not "reaped"
        wait_for_roster(server, 0)
        assert server.stats()["reaped_total"] == before


class TestMidWritesDeath:
    def test_sessions_released_and_view_consistent(self, served_server):
        server, backend, documents = served_server

        victim = raw_dial(server)
        wait_for_roster(server, 1)
        # Grab the server-side half so we can verify it is torn down.
        handler = next(iter(server._handlers.values()))

        # Queue writes through the dying connection: label fresh examples.
        fresh = documents[60:70]
        for doc in fresh:
            label = "database" if doc.label == 1 else "other"
            write_frame(
                victim,
                {
                    "op": "query",
                    "sql": "INSERT INTO example_papers (id, label) VALUES (?, ?)",
                    "params": [doc.entity_id, label],
                },
            )
            response = read_frame(victim)
            assert response["ok"], response
        # One more write whose response the victim never reads, then death.
        doc = documents[70]
        write_frame(
            victim,
            {
                "op": "query",
                "sql": "INSERT INTO example_papers (id, label) VALUES (?, ?)",
                "params": [doc.entity_id, "database" if doc.label == 1 else "other"],
            },
        )
        victim.close()
        wait_for_roster(server, 0)

        # The dead wire connection's server-side half is closed, which clears
        # its SessionRegistry — the read-your-writes sessions are released.
        deadline = time.perf_counter() + TEST_TIMEOUT_S
        while not handler.connection.closed:
            assert time.perf_counter() < deadline, "server-side connection leaked"
            time.sleep(0.02)

        # Its writes were accepted before death and flow through maintenance:
        # the base table holds all eleven labels...
        count = backend.execute("SELECT COUNT(*) FROM example_papers").scalar()
        assert count == 40 + len(fresh) + 1
        # ...and the view still answers consistently for a healthy client.  The
        # three reads below are separate statements: wait out the queued writes
        # first, or a maintenance round landing between the two member reads
        # (the view turns from all-positive to all-negative at its first
        # publish) makes the class sizes sum to twice the total.
        backend.engine.view("labeled_papers").server.flush(timeout=TEST_TIMEOUT_S)
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
            total = client.execute("SELECT COUNT(*) FROM labeled_papers").scalar()
            members = client.execute(
                "SELECT id FROM labeled_papers WHERE class = 'database'"
            ).fetchall()
            negatives = client.execute(
                "SELECT id FROM labeled_papers WHERE class = 'other'"
            ).fetchall()
            assert len(members) + len(negatives) == total
            point = client.execute(
                "SELECT class FROM labeled_papers WHERE id = ?", (fresh[0].entity_id,)
            ).scalar()
            assert point in ("database", "other")
