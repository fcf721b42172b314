"""``SQLServer``: the SQL-over-socket front door.

One :class:`SQLServer` listens on a TCP socket and speaks the frame protocol
of :mod:`repro.net.protocol`.  Each accepted socket is handled by its own
thread and mapped onto a **server-side** :func:`repro.connect` connection
over the shared engine — so every wire connection gets exactly the semantics
an in-process connection has:

* its own prepared-statement LRU (repeats re-bind ``?`` without re-planning);
* its own :class:`~repro.serve.sync.SessionRegistry`, hence monotonic
  read-your-writes against every served view, *per wire connection*;
* structured errors: a server-side :class:`~repro.exceptions.SQLSyntaxError`
  or ``SQLPlanningError`` crosses the wire with ``position``/``token`` intact.

Every statement passes the :class:`~repro.net.admission.AdmissionController`
before it executes: point reads and bulk work queue in separate lanes so
All-Members scans cannot starve point reads under load.  Per-lane depth and
wait metrics are mirrored into the engine database's metrics registry as a
lazy ``net.admission`` pull provider, the server's own counters as
``net.server``, and the live connection roster is queryable in SQL through
the virtual ``system.connections`` table.  Those names are fixed, so a
database has at most one running server: a second :meth:`SQLServer.start`
on it raises :class:`~repro.exceptions.ConfigurationError` until the first
closes.

A client that dies ungracefully — mid-frame, mid-statement, or with writes
still in flight — is *reaped*: its handler closes the server-side connection
(releasing its view sessions), the socket is torn down, and the roster row
disappears.  Queued writes it issued before dying remain in the maintenance
pipeline and apply normally; the served view stays consistent.

``main()`` is the ``repro-serve`` console entry point: it builds a fresh
in-process stack, optionally executes a bootstrap SQL script, then serves
until SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import itertools
import signal
import socket
import sys
import threading
import time
import weakref

from repro.db.sql.lexer import TokenType, tokenize
from repro.exceptions import ConfigurationError, HazyError, NetworkError, ProtocolError
from repro.net.admission import (
    BULK_LANE,
    POINT_LANE,
    AdmissionController,
    lane_for,
)
from repro.net.protocol import (
    PROTOCOL_VERSION,
    encode_error,
    encode_frame,
    read_frame,
    send_frame,
    write_frame,
)

__all__ = ["SQLServer", "main"]

_SERVER_IDS = itertools.count(1)

#: The running server of each database: the observability names a server
#: registers are per database, so only one server may hold them at a time.
_RUNNING: "weakref.WeakKeyDictionary[object, SQLServer]" = weakref.WeakKeyDictionary()
_RUNNING_LOCK = threading.Lock()


class _Handler:
    """One wire connection: socket + server-side connection + counters."""

    def __init__(self, server: "SQLServer", sock: socket.socket, remote) -> None:
        from repro.connection import connect

        self.server = server
        self.sock = sock
        self.remote = f"{remote[0]}:{remote[1]}" if isinstance(remote, tuple) else str(remote)
        self.connection = connect(engine=server.engine)
        self.name = self.connection.name
        self.connected_at = time.perf_counter()
        self.state = "idle"
        #: How the session ended: "live" while running, then "goodbye"
        #: (explicit), "eof" (socket closed between frames) or "error"
        #: (died mid-frame/mid-statement — the reaped case).
        self.parted = "live"
        self.current_lane: str | None = None
        self.statements_total = 0
        self.point_statements_total = 0
        self.bulk_statements_total = 0
        self.errors_total = 0
        self.thread = threading.Thread(
            target=self._run, name=f"repro-net-{self.name}", daemon=True
        )

    # -- the request loop ----------------------------------------------------------------

    def _run(self) -> None:
        try:
            write_frame(
                self.sock,
                {
                    "server": "repro-serve",
                    "protocol": PROTOCOL_VERSION,
                    "connection": self.name,
                },
            )
            while True:
                request = read_frame(self.sock, eof_ok=True)
                if request is None:  # clean EOF between frames
                    self.parted = "eof"
                    break
                if not self._serve_one(request):
                    self.parted = "goodbye"
                    break
        except NetworkError:
            # Truncated frame, reset socket, failed response write: the peer
            # is gone or unintelligible — reap without taking the server down.
            self.parted = "error"
        finally:
            self.server._reap(self)

    def _serve_one(self, request: dict) -> bool:
        """Handle one request frame; False ends the session (goodbye).

        The response is encoded inside the ``try``: a result too large for
        one frame is a statement error answered with an error frame, and the
        connection stays usable.  Only the send is left outside, where a
        failure means the peer is gone.
        """
        op = request.get("op")
        try:
            if op == "goodbye":
                write_frame(self.sock, {"ok": True, "goodbye": True})
                return False
            if op == "query":
                response = self._execute_query(request)
            elif op == "executemany":
                response = self._execute_many(request)
            elif op == "ping":
                response = {"ok": True, "pong": True}
            else:
                raise ProtocolError(f"unknown operation {op!r}")
            frame = encode_frame(response)
        except HazyError as error:
            self.errors_total += 1
            self.server._count_error()
            frame = encode_frame({"ok": False, "error": encode_error(error)})
        except Exception as error:  # noqa: BLE001 — internal fault must not leak
            self.errors_total += 1
            self.server._count_error()
            response = {
                "ok": False,
                "error": {"type": "InternalError", "message": f"{type(error).__name__}: {error}"},
            }
            frame = encode_frame(response)
        finally:
            self.state = "idle"
            self.current_lane = None
        send_frame(self.sock, frame)
        return True

    def _admission_timeout(self, request: dict) -> float | None:
        options = request.get("options") or {}
        timeout = options.get("admission_timeout_s")
        return float(timeout) if timeout is not None else self.server.admission_timeout_s

    def _execute_query(self, request: dict) -> dict:
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("query frame carries no 'sql' string")
        parameters = request.get("params") or []
        # Classify before admission: parse/plan are cheap, cached per wire
        # connection, and the lane choice needs the plan's access shape.
        prepared = self.connection.prepare(sql)
        lane = lane_for(prepared.statement, prepared.plan)
        self.state = "queued"
        self.current_lane = lane
        with self.server.admission.admit(lane, timeout=self._admission_timeout(request)):
            self.state = "executing"
            result = self.connection._execute(sql, parameters)
        self.statements_total += 1
        self.server._count_statement()
        if lane == POINT_LANE:
            self.point_statements_total += 1
        else:
            self.bulk_statements_total += 1
        # ``rows`` deliberately last: the protocol encodes a large row list in
        # slices and appends them at the end of the payload, so this order
        # keeps the frame bytes identical to one json.dumps of this dict.
        return {
            "ok": True,
            "rowcount": result.rowcount,
            "statement_type": result.statement_type,
            "rows": result.rows,
        }

    def _execute_many(self, request: dict) -> dict:
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("executemany frame carries no 'sql' string")
        parameter_rows = request.get("param_rows") or []
        self.state = "queued"
        self.current_lane = BULK_LANE
        with self.server.admission.admit(BULK_LANE, timeout=self._admission_timeout(request)):
            self.state = "executing"
            total = self.connection._executemany(sql, parameter_rows)
        self.statements_total += 1
        self.server._count_statement()
        self.bulk_statements_total += 1
        return {"ok": True, "rowcount": total, "statement_type": "EXECUTEMANY"}

    # -- observability / teardown --------------------------------------------------------

    def row(self) -> dict[str, object]:
        """This connection's ``system.connections`` row."""
        return {
            "connection": self.name,
            "remote": self.remote,
            "state": self.state,
            "lane": self.current_lane,
            "statements_total": self.statements_total,
            "point_statements_total": self.point_statements_total,
            "bulk_statements_total": self.bulk_statements_total,
            "errors_total": self.errors_total,
            "connected_seconds": round(time.perf_counter() - self.connected_at, 3),
        }

    def shutdown(self) -> None:
        """Stop reading new requests; an in-flight response may still write."""
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass

    def teardown(self) -> None:
        """Release the server-side connection and the socket (idempotent)."""
        try:
            self.connection.close()
        except Exception:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class SQLServer:
    """Serve an engine's SQL surface over TCP.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.engine.HazyEngine` whose database and served
        views this server fronts.  The server never owns the engine's
        lifecycle — closing the server leaves serving intact.
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        ``server.port`` after :meth:`start`).
    max_connections:
        Accepted-socket cap; excess dials are refused with a structured error.
    slots / queue_capacity / point_weight / bulk_weight / bulk_slot_cap:
        The lanes of the server's :class:`AdmissionController`.
    admission_timeout_s:
        Default lane-wait deadline per statement (None = wait forever);
        clients can override per statement via the request's options.
    """

    # Shared-state contract, enforced by repro-lint's lock pass: handler
    # threads, the accept loop, and observability readers all touch these.
    _GUARDED_BY = {
        "_handlers": "_lock",
        "statements_total": "_lock",
        "errors_total": "_lock",
        "connections_total": "_lock",
        "reaped_total": "_lock",
        "refused_total": "_lock",
    }

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        slots: int = 4,
        queue_capacity: int = 128,
        point_weight: int = 4,
        bulk_weight: int = 1,
        bulk_slot_cap: int | None = None,
        admission_timeout_s: float | None = 30.0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = int(port)
        self.max_connections = int(max_connections)
        self.admission = AdmissionController(
            slots=slots,
            queue_capacity=queue_capacity,
            point_weight=point_weight,
            bulk_weight=bulk_weight,
            bulk_slot_cap=bulk_slot_cap,
        )
        self.admission_timeout_s = admission_timeout_s
        self.name = f"sql-server-{next(_SERVER_IDS)}"
        self.statements_total = 0
        self.errors_total = 0
        self.connections_total = 0
        self.reaped_total = 0
        self.refused_total = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: dict[str, _Handler] = {}
        self._lock = threading.Lock()
        self._running = False

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> "SQLServer":
        """Bind, listen, register observability surfaces, begin accepting.

        Raises :class:`ConfigurationError` while another server is running
        on the same database.
        """
        if self._running:
            return self
        database = self.engine.database
        with _RUNNING_LOCK:
            running = _RUNNING.get(database)
            if running is not None:
                raise ConfigurationError(
                    f"{running.name} is already serving this database on "
                    f"{running.host}:{running.port}; close it before starting {self.name}"
                )
            _RUNNING[database] = self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(128)
        except BaseException:
            listener.close()
            with _RUNNING_LOCK:
                del _RUNNING[database]
            raise
        # Closing a listener does not reliably wake a blocked accept(); a
        # short timeout lets the accept loop notice shutdown promptly.
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._running = True
        registry = database.obs.registry
        registry.provider("net.admission", self.admission.stats)
        registry.provider("net.server", self.stats)
        database.catalog.register_system_table("system.connections", self.connection_rows)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"repro-net-accept-{self.name}", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting, drain handlers, unregister surfaces (idempotent).

        Handlers finish the statement they are executing (the response still
        writes), then see EOF and exit; the engine and its served views are
        untouched — the server is a front door, not the building.
        """
        if not self._running:
            return
        self._running = False
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        with self._lock:
            handlers = list(self._handlers.values())
        for handler in handlers:
            handler.shutdown()
        deadline = time.perf_counter() + (timeout if timeout is not None else 0)
        for handler in handlers:
            remaining = None
            if timeout is not None:
                remaining = max(0.1, deadline - time.perf_counter())
            handler.thread.join(timeout=remaining)
        # Anything still alive gets its socket pulled out from under it.
        with self._lock:
            handlers = list(self._handlers.values())
        for handler in handlers:
            handler.teardown()
            self._reap(handler)
        database = self.engine.database
        database.obs.registry.remove_provider("net.admission")
        database.obs.registry.remove_provider("net.server")
        database.catalog.register_system_table("system.connections", list)
        with _RUNNING_LOCK:
            del _RUNNING[database]

    def __enter__(self) -> "SQLServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accepting -----------------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                sock, remote = self._listener.accept()
            except socket.timeout:
                continue  # periodic shutdown check
            except OSError:
                break  # listener closed: shutdown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)  # handler reads block until the client speaks
            with self._lock:
                over_capacity = len(self._handlers) >= self.max_connections
                if over_capacity:
                    self.refused_total += 1
            if over_capacity:
                try:
                    write_frame(
                        sock,
                        {
                            "server": "repro-serve",
                            "protocol": PROTOCOL_VERSION,
                            "error": encode_error(
                                NetworkError(
                                    f"server is at its {self.max_connections}-connection limit"
                                )
                            ),
                        },
                    )
                except Exception:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            handler = _Handler(self, sock, remote)
            with self._lock:
                self._handlers[handler.name] = handler
                self.connections_total += 1
            handler.thread.start()

    def _reap(self, handler: _Handler) -> None:
        """Remove a finished/dead handler and release its resources.

        Every departing handler passes through here (the session registry and
        socket are always released); only an *ungraceful* exit — one that died
        mid-frame or mid-statement — counts toward ``reaped_total``.
        """
        with self._lock:
            removed = self._handlers.pop(handler.name, None)
            # Counted with the pop, so no reader sees the roster without the count.
            if removed is not None and handler.parted == "error":
                self.reaped_total += 1
        handler.teardown()

    # -- observability -------------------------------------------------------------------

    def connection_rows(self) -> list[dict[str, object]]:
        """``system.connections`` producer: one row per live wire connection."""
        with self._lock:
            handlers = list(self._handlers.values())
        return [handler.row() for handler in sorted(handlers, key=lambda h: h.name)]

    def _count_statement(self) -> None:
        """Handler threads report statement completions through here."""
        with self._lock:
            self.statements_total += 1

    def _count_error(self) -> None:
        """Handler threads report statement errors through here."""
        with self._lock:
            self.errors_total += 1

    def stats(self) -> dict[str, float]:
        """Server-level counters (the ``net.server`` pull provider)."""
        with self._lock:
            return {
                "connections_active": len(self._handlers),
                "connections_total": self.connections_total,
                "statements_total": self.statements_total,
                "errors_total": self.errors_total,
                "reaped_total": self.reaped_total,
                "refused_total": self.refused_total,
            }


# ---------------------------------------------------------------------------
# The repro-serve console entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``repro-serve``: stand up a fresh engine behind a TCP front door."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the Hazy reproduction's SQL dialect over a TCP socket.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default loopback)")
    parser.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--init",
        metavar="FILE",
        default=None,
        help="SQL script executed statement-by-statement before serving",
    )
    parser.add_argument("--slots", type=int, default=4, help="concurrent execution slots")
    parser.add_argument(
        "--queue-capacity", type=int, default=128, help="per-lane admission queue bound"
    )
    parser.add_argument("--point-weight", type=int, default=4, help="point-lane grant weight")
    parser.add_argument("--bulk-weight", type=int, default=1, help="bulk-lane grant weight")
    parser.add_argument(
        "--bulk-slot-cap",
        type=int,
        default=None,
        help="max concurrent bulk statements (default: slots - 1)",
    )
    parser.add_argument(
        "--max-connections", type=int, default=64, help="accepted-socket cap"
    )
    args = parser.parse_args(argv)

    from repro.connection import connect

    conn = connect()
    if args.init:
        with open(args.init, "r", encoding="utf-8") as handle:
            script = handle.read()
        # Each statement runs from its first token up to its ``;`` (or the end),
        # cut where the dialect's own lexer puts them.
        ends = {(TokenType.PUNCTUATION, ";"), (TokenType.END, "")}
        start = None
        for token in tokenize(script):
            if (token.type, token.value) in ends:
                if start is not None:
                    conn.execute(script[start : token.position])
                start = None
            elif start is None:
                start = token.position
    server = SQLServer(
        conn.engine,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        slots=args.slots,
        queue_capacity=args.queue_capacity,
        point_weight=args.point_weight,
        bulk_weight=args.bulk_weight,
        bulk_slot_cap=args.bulk_slot_cap,
    ).start()
    # The parent process (or operator) reads this line to learn the port.
    print(f"repro-serve listening on {server.host}:{server.port}", flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, _request_stop)
    signal.signal(signal.SIGTERM, _request_stop)
    try:
        while not stop.wait(timeout=0.5):
            pass
    finally:
        server.close()
        conn.close()
        print("repro-serve stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
