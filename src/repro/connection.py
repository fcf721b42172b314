"""``repro.connect()``: the single declarative front door to the system.

The paper's thesis is that classification views are first-class *declarative*
objects inside the DBMS.  This module makes the whole reproduction usable that
way: one :func:`connect` call yields a :class:`Connection` whose
cursor-style ``execute``/``executemany`` speak the full SQL surface — DDL,
DML, ``CREATE CLASSIFICATION VIEW``, the serving lifecycle (``SERVE VIEW``,
``STOP SERVING``, ``CHECKPOINT VIEW ... TO``, ``RESTORE VIEW ... FROM``) and
``EXPLAIN`` — with no other objects to juggle.

Prepared statements
-------------------

``execute(sql, params)`` treats every SQL string as a prepared statement:
each connection keeps an LRU cache (:data:`PLAN_CACHE_SIZE` entries) keyed
on the SQL text holding the parsed AST *and* its planned
:class:`~repro.db.sql.planner.SelectPlan` — a SELECT's own, and for ``UPDATE``
/ ``DELETE`` the plan that locates the rows to write (``EXPLAIN`` of any of
them caches the same plan).  Re-executing the same text — including through
``executemany`` — re-binds the ``?`` parameters without re-parsing or
re-planning.  Statements that change what a plan may assume
(DDL, ``CREATE CLASSIFICATION VIEW``, the serving lifecycle verbs) clear the
cache; plans are additionally serving-state tolerant at execution time, so a
plan cached by one connection stays correct when another connection serves or
stops serving a view.

Per-connection consistency
--------------------------

Each connection owns a :class:`~repro.serve.sync.SessionRegistry`: every
SELECT it issues against a *served* view runs on that connection's
:class:`~repro.serve.server.ClientSession`, and every INSERT/UPDATE/DELETE it
issues against a served view's base tables registers the write's visibility
ticket with the same session.  The result is monotonic read-your-writes
*through plain SQL*: a connection that inserts a training example and then
SELECTs the view observes the example applied; two different connections are
two independent timelines.

Lifecycle
---------

``close()`` quiesces: when the connection created its engine (the normal
``repro.connect()`` path) every served view is handed back consistent via
``server.close()`` before the connection refuses further statements.  A
connection wrapping a caller-supplied engine (``connect(engine=...)``) only
releases its sessions — serving lifecycle stays with the engine's owner, so
worker connections in a multi-threaded client can come and go freely.
"""

from __future__ import annotations

import inspect
import itertools
import time
from collections import OrderedDict
from collections.abc import Iterator, Sequence

from repro.core.engine import HazyEngine
from repro.db.buffer_pool import ledger_probe
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql.ast import (
    CheckpointView,
    CreateClassificationView,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Insert,
    RestoreView,
    ServeView,
    Statement,
    StopServing,
    Update,
)
from repro.db.sql.executor import ResultSet
from repro.db.sql.parser import parse
from repro.exceptions import ConfigurationError
from repro.features import FeatureFunctionRegistry
from repro.obs import (
    Observability,
    current_trace,
    reset_current_trace,
    set_current_trace,
)
from repro.serve.sync import SessionRegistry

__all__ = ["connect", "Connection", "Cursor", "PreparedStatement"]

_CONNECTION_IDS = itertools.count(1)

#: Prepared statements one connection keeps, least recently used evicted first.
PLAN_CACHE_SIZE = 128

#: Statements whose execution may invalidate cached plans (schema or serving
#: topology changes).  CheckpointView is included for symmetry with the other
#: lifecycle verbs even though it leaves plans valid — the cache refills in
#: one statement and correctness beats cleverness here.
_CACHE_INVALIDATING = (
    CreateTable,
    DropTable,
    CreateIndex,
    DropIndex,
    CreateClassificationView,
    ServeView,
    StopServing,
    CheckpointView,
    RestoreView,
)


class PreparedStatement:
    """One cached compilation: the parsed AST plus its plan, if it has one
    (:meth:`SQLExecutor.plan_for <repro.db.sql.executor.SQLExecutor.plan_for>`).

    ``probe`` memoizes the statement's cost probe (``probe_key``: the plan's
    probe, or without a plan the catalog version, it was built for) — the
    traced execution path reads it on every statement.
    """

    __slots__ = ("sql", "statement", "plan", "probe", "probe_key")

    def __init__(self, sql: str, statement: Statement, plan) -> None:
        self.sql = sql
        self.statement = statement
        self.plan = plan
        self.probe = None
        self.probe_key = None


class Cursor:
    """A DB-API-flavoured cursor over one connection.

    ``execute`` returns the cursor itself (as in :mod:`sqlite3`), so the
    quickstart reads naturally::

        count = conn.execute("SELECT COUNT(*) FROM labeled_papers").scalar()
        for row in conn.execute("SELECT id, class FROM labeled_papers"):
            ...
    """

    def __init__(self, connection: "Connection") -> None:
        self.connection = connection
        self.rows: list[dict[str, object]] = []
        self.rowcount: int = -1
        self.statement_type: str = ""
        self._cursor_position = 0
        self._closed = False

    # -- execution ---------------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[object] | None = None) -> "Cursor":
        """Run one SQL statement; the cursor then holds its result rows."""
        if self._closed:
            raise ConfigurationError("cursor is closed")
        result = self.connection._execute(sql, parameters)
        self._load(result)
        return self

    def executemany(self, sql: str, parameter_rows: Sequence[Sequence[object]]) -> "Cursor":
        """Run a prepared statement once per parameter row."""
        if self._closed:
            raise ConfigurationError("cursor is closed")
        total = self.connection._executemany(sql, parameter_rows)
        self._load(ResultSet(rowcount=total, statement_type="EXECUTEMANY"))
        return self

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Release the result set; further ``execute`` calls raise (idempotent).

        The connection stays open — closing a cursor only invalidates this
        handle, as in DB-API.
        """
        self._closed = True
        self.rows = []
        self._cursor_position = 0

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _load(self, result: ResultSet) -> None:
        self.rows = result.rows
        self.rowcount = result.rowcount
        self.statement_type = result.statement_type
        self._cursor_position = 0

    # -- result access -----------------------------------------------------------------

    @property
    def description(self) -> list[str]:
        """Column names of the current result set (empty for DML/DDL)."""
        return list(self.rows[0].keys()) if self.rows else []

    def fetchone(self) -> dict[str, object] | None:
        """Next result row, or None when exhausted."""
        if self._cursor_position >= len(self.rows):
            return None
        row = self.rows[self._cursor_position]
        self._cursor_position += 1
        return row

    def fetchmany(self, size: int = 1) -> list[dict[str, object]]:
        """Up to ``size`` further result rows."""
        chunk = self.rows[self._cursor_position : self._cursor_position + size]
        self._cursor_position += len(chunk)
        return chunk

    def fetchall(self) -> list[dict[str, object]]:
        """Every remaining result row."""
        remaining = self.rows[self._cursor_position :]
        self._cursor_position = len(self.rows)
        return remaining

    def scalar(self) -> object:
        """First column of the first row (e.g. a COUNT(*) value)."""
        if not self.rows:
            raise ConfigurationError("result set is empty")
        return next(iter(self.rows[0].values()))

    def __iter__(self) -> Iterator[dict[str, object]]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row


class Connection:
    """One client's handle on the database + engine pair.

    Build it with :func:`connect`; use :meth:`execute` / :meth:`executemany`
    for everything.  The underlying :class:`~repro.db.database.Database` and
    :class:`~repro.core.engine.HazyEngine` remain reachable as ``.database``
    and ``.engine`` for tooling, but the quickstart never needs them.
    """

    def __init__(self, database: Database, engine: HazyEngine, owns_engine: bool) -> None:
        self.database = database
        self.engine = engine
        self._owns_engine = owns_engine
        self._sessions = SessionRegistry()
        self._closed = False
        self._statements: OrderedDict[str, PreparedStatement] = OrderedDict()
        self.name = f"conn-{next(_CONNECTION_IDS)}"
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        self._plan_cache_invalidations = 0
        obs = database.obs
        obs.register_plan_cache(self.name, self.plan_cache_stats)
        obs.registry.provider(f"connection.{self.name}.plan_cache", self.plan_cache_stats)

    def plan_cache_stats(self) -> dict[str, float]:
        """Prepared-statement cache counters (``system.plan_cache`` row shape)."""
        return {
            "hits_total": self._plan_cache_hits,
            "misses_total": self._plan_cache_misses,
            "invalidations_total": self._plan_cache_invalidations,
            "entries": len(self._statements),
            "capacity": PLAN_CACHE_SIZE,
        }

    # -- statement execution ------------------------------------------------------------

    def cursor(self) -> Cursor:
        """A fresh cursor over this connection."""
        self._require_open()
        return Cursor(self)

    def execute(self, sql: str, parameters: Sequence[object] | None = None) -> Cursor:
        """Parse and run one SQL statement; returns a cursor holding the result."""
        return self.cursor().execute(sql, parameters)

    def executemany(self, sql: str, parameter_rows: Sequence[Sequence[object]]) -> Cursor:
        """Run a prepared statement once per parameter row."""
        return self.cursor().executemany(sql, parameter_rows)

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse (and plan, where there is a WHERE to plan) once; cached by SQL
        text in LRU order.

        Spans record work actually performed: a plan-cache hit parses and
        plans nothing, so it records nothing — parse/plan spans appear on
        misses (and a ``plan`` span on a stale-plan refresh).
        """
        self._require_open()
        cached = self._statements.get(sql)
        if cached is not None:
            self._statements.move_to_end(sql)
            self._plan_cache_hits += 1
            if (
                cached.plan is not None
                and cached.plan.catalog_version != self.database.catalog.version
            ):
                # DDL on another connection sharing this engine moved the
                # catalog; refresh the plan once here so the hot path does
                # not re-plan on every execution forever.
                cached.plan = self.database.executor.plan_for(cached.statement)
                self._plan_cache_invalidations += 1
                trace = current_trace()
                if trace is not None:
                    trace.add_span(
                        "plan",
                        parent_id=trace.cross_thread_parent_id,
                        detail="stale plan refreshed",
                    )
            return cached
        self._plan_cache_misses += 1
        trace = current_trace()
        started = time.perf_counter()
        statement = parse(sql)
        if trace is not None:
            trace.add_span(
                "parse",
                parent_id=trace.cross_thread_parent_id,
                wall_seconds=time.perf_counter() - started,
            )
        started = time.perf_counter()
        plan = self.database.executor.plan_for(statement)
        if trace is not None:
            trace.add_span(
                "plan",
                parent_id=trace.cross_thread_parent_id,
                wall_seconds=time.perf_counter() - started,
                estimated_seconds=plan.estimated_seconds if plan is not None else None,
                detail="plan cache miss" if plan is not None else "not a planned statement",
            )
        prepared = PreparedStatement(sql, statement, plan)
        self._statements[sql] = prepared
        while len(self._statements) > PLAN_CACHE_SIZE:
            self._statements.popitem(last=False)
        return prepared

    def _invalidate_plans(self, statement: Statement) -> None:
        """Drop cached plans after statements that change schema or serving state."""
        if isinstance(statement, _CACHE_INVALIDATING):
            self._plan_cache_invalidations += len(self._statements)
            self._statements.clear()

    def _statement_cost_probe(self, prepared: PreparedStatement):
        """Simulated-seconds probe covering every ledger this statement touches.

        The plan's ledger groups (the database ledger alone without a plan),
        then, for DML, the direct maintainers' ledgers of the views its table
        feeds: an unserved view is maintained inside the statement, a served
        one by its worker, which its idle direct maintainer leaves attributed there.
        """
        statement, plan, database = prepared.statement, prepared.plan, self.database
        # A catalog move replaces a plan, and a view served or stopped its probe.
        key = plan.cost_probe(database) if plan is not None else database.catalog.version
        if prepared.probe_key != key:
            dml = isinstance(statement, (Insert, Update, Delete))
            written = statement.table.lower() if dml else None
            fed = [v for v in self.engine.views.values() if written in v.source_table_names()]
            groups = plan.ledger_groups(database) if plan is not None else [(database.stats,)]
            prepared.probe = ledger_probe(*groups, [view.maintainer.store.stats for view in fed])
            prepared.probe_key = key
        return prepared.probe

    def _execute(self, sql: str, parameters: Sequence[object] | None) -> ResultSet:
        self._require_open()
        obs = self.database.obs
        trace = obs.begin_trace(sql)
        if trace is None:
            prepared = self.prepare(sql)
            result = self.database.executor.execute(
                prepared.statement, parameters, self._sessions, plan=prepared.plan
            )
            self._invalidate_plans(prepared.statement)
            self._harvest_write_tickets(prepared.statement)
            return result
        wall_started = time.perf_counter()
        root = trace.add_span("statement", detail=self.name)
        trace.cross_thread_parent_id = root.span_id
        token = set_current_trace(trace)
        try:
            prepared = self.prepare(sql)
            probe = self._statement_cost_probe(prepared)
            execute_span = trace.add_span(
                "execute",
                parent_id=root.span_id,
                estimated_seconds=(
                    prepared.plan.estimated_seconds if prepared.plan is not None else None
                ),
            )
            trace.cross_thread_parent_id = execute_span.span_id
            simulated_before = probe()
            execute_started = time.perf_counter()
            try:
                result = self.database.executor.execute(
                    prepared.statement, parameters, self._sessions, plan=prepared.plan
                )
            finally:
                trace.cross_thread_parent_id = None
            execute_span.wall_seconds = time.perf_counter() - execute_started
            execute_span.simulated_seconds = probe() - simulated_before
            execute_span.rows = result.rowcount
        finally:
            reset_current_trace(token)
        self._invalidate_plans(prepared.statement)
        self._harvest_write_tickets(prepared.statement)
        trace.finalize(execute_span.simulated_seconds, time.perf_counter() - wall_started)
        obs.record_trace(trace)
        return result

    def _executemany(self, sql: str, parameter_rows: Sequence[Sequence[object]]) -> int:
        self._require_open()
        prepared = self.prepare(sql)
        total = self.database.executor.execute_many(
            prepared.statement, parameter_rows, self._sessions, plan=prepared.plan
        )
        self._invalidate_plans(prepared.statement)
        self._harvest_write_tickets(prepared.statement)
        return total

    def _harvest_write_tickets(self, statement: Statement) -> None:
        """Bind diverted-write tickets to this connection's sessions.

        DML against a served view's base tables enqueues maintenance work; the
        server parks the resulting ticket in a thread-local.  Claiming it here
        (on the same thread that executed the statement) gives this
        connection's next read of that view read-your-writes semantics.
        """
        if not isinstance(statement, (Insert, Update, Delete)):
            return
        table = statement.table.lower()
        for view in self.engine.served_views():
            server = view.server
            if table not in view.source_table_names():
                continue
            ticket = server.take_session_ticket()
            if ticket is not None:
                self._sessions.note_write(view.name, server, ticket)

    # -- session access -----------------------------------------------------------------

    def session(self, view_name: str):
        """This connection's :class:`~repro.serve.server.ClientSession` for a served view."""
        self._require_open()
        view = self.engine.view(view_name)
        if view.server is None:
            raise ConfigurationError(f"view {view_name!r} is not being served")
        return self._sessions.session_for(view.name, view.server)

    # -- lifecycle ----------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("connection is closed")

    def close(self, timeout: float | None = None) -> None:
        """Quiesce and invalidate this connection (idempotent).

        A connection that owns its engine closes every served view — the
        pipeline drains and each view is handed back consistent — so
        ``connect() ... close()`` never leaks background threads.  Wrapping
        connections only release their sessions.
        """
        if self._closed:
            return
        self._closed = True
        self._statements.clear()
        self._sessions.clear()
        self.database.obs.unregister_plan_cache(self.name)
        self.database.obs.registry.remove_provider(f"connection.{self.name}.plan_cache")
        if self._owns_engine:
            for view in self.engine.served_views():
                view.server.close(timeout=timeout)

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    database: Database | None = None,
    engine: HazyEngine | None = None,
    *,
    cost_model: CostModel | None = None,
    buffer_pool_pages: int | None = None,
    observability: Observability | None = None,
    registry: FeatureFunctionRegistry | None = None,
    architecture: str | None = None,
    strategy: str | None = None,
    approach: str | None = None,
    **unknown,
) -> Connection:
    """Open a connection to a (new or existing) Hazy database.

    With no arguments this builds a fresh in-process stack — a
    :class:`~repro.db.database.Database` plus a
    :class:`~repro.core.engine.HazyEngine` — and the returned connection owns
    its lifecycle (``close()`` quiesces any served views).  Pass ``database=``
    to attach an engine to an existing database, or ``engine=`` to open an
    additional connection over an existing engine (e.g. one connection per
    client thread, each with its own session timeline).

    ``registry`` / ``architecture`` / ``strategy`` / ``approach`` configure
    the engine exactly as :class:`HazyEngine` does; they are rejected when
    ``engine=`` is supplied.  Those are all the engine takes: Skiing's α, the
    hybrid buffer fraction and the trainer's settings are constants of the
    modules that use them.  Any other keyword is a
    :class:`~repro.exceptions.ConfigurationError` that names it and lists
    the keywords ``connect`` takes.

    ``observability=`` supplies a preconfigured :class:`repro.obs.Observability`
    for the new database (e.g. ``Observability(enabled=False)`` for the no-op
    path, or a custom ``slow_query_seconds`` threshold); connections opened
    over an existing ``engine=``/``database=`` share that database's context,
    reachable as ``conn.database.obs``.

    Connections and cursors are context managers::

        with repro.connect() as conn:
            with conn.execute("SELECT COUNT(*) FROM papers") as cursor:
                total = cursor.scalar()
    """
    if unknown:
        known = sorted(inspect.signature(connect).parameters.keys() - {"unknown"})
        raise ConfigurationError(f"unknown connect option {sorted(unknown)[0]!r}; known: {known}")
    if engine is not None:
        if database is not None and engine.database is not database:
            raise ConfigurationError(
                "connect(database=..., engine=...) requires the engine to be "
                "attached to that same database"
            )
        if cost_model is not None or buffer_pool_pages is not None or observability is not None:
            raise ConfigurationError(
                "cost_model/buffer_pool_pages/observability "
                "configure a new database; they cannot be combined with engine="
            )
        if (
            registry is not None
            or architecture is not None
            or strategy is not None
            or approach is not None
        ):
            raise ConfigurationError("engine options cannot be combined with an existing engine=")
        return Connection(engine.database, engine, owns_engine=False)
    if database is None:
        database = Database(
            cost_model=cost_model,
            buffer_pool_pages=buffer_pool_pages,
            observability=observability,
        )
    elif cost_model is not None or buffer_pool_pages is not None or observability is not None:
        raise ConfigurationError(
            "cost_model/buffer_pool_pages/observability "
            "configure a new database; they cannot be combined with database="
        )
    engine = HazyEngine(
        database,
        registry=registry,
        architecture=architecture if architecture is not None else "mainmemory",
        strategy=strategy if strategy is not None else "hazy",
        approach=approach if approach is not None else "eager",
    )
    return Connection(database, engine, owns_engine=True)
