"""Execution of parsed SQL statements against a Database.

Reads are **plan-first**: every ``SELECT`` — base table, unserved view,
served view, joins — is compiled by the :class:`~repro.db.sql.planner.Planner`
into a :class:`~repro.db.sql.planner.SelectPlan` of typed
:mod:`~repro.db.sql.plan` nodes and executed by walking that tree; the
executor itself contains no statement-shape dispatch.  ``EXPLAIN`` prints the
same plan the executor would run; ``EXPLAIN ANALYZE`` runs it and reports
actual vs estimated simulated seconds per node.  A statement has **one
WHERE**: ``UPDATE`` and ``DELETE`` locate their rows by running the plan of
``SELECT <pk> FROM t WHERE <the same conjuncts>`` to completion — same
validation, access path, residual ``Filter``, ``?`` binding, plan cache and
``EXPLAIN`` as a read — and only then write by key, which fires the triggers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial

from repro.db.schema import Column, TableSchema
from repro.db.sql.ast import (
    PLACEHOLDER,
    CheckpointView,
    CreateClassificationView,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Explain,
    Insert,
    RestoreView,
    Select,
    ServeView,
    Statement,
    StopServing,
    Update,
)
from repro.db.sql.planner import Planner, SelectPlan
from repro.db.types import DataType
from repro.exceptions import SQLExecutionError, SQLPlanningError
from repro.obs import current_trace

__all__ = ["ResultSet", "SQLExecutor"]


#: Statement types handled by the serving extension (the Hazy engine).
_SERVING_STATEMENTS = (ServeView, StopServing, CheckpointView, RestoreView)


@dataclass
class ResultSet:
    """The result of executing one SQL statement.

    ``rows`` holds the result rows for SELECT (a single ``{"count": n}`` row
    for COUNT queries); ``rowcount`` is the number of rows affected for DML
    and the number of rows returned for queries.
    """

    rows: list[dict[str, object]] = field(default_factory=list)
    rowcount: int = 0
    statement_type: str = ""

    def scalar(self) -> object:
        """First column of the first row (e.g. the COUNT(*) value)."""
        if not self.rows:
            raise SQLExecutionError("result set is empty")
        first = self.rows[0]
        return next(iter(first.values()))


#: Handler invoked for CREATE CLASSIFICATION VIEW; installed by the Hazy engine.
ClassificationViewHandler = Callable[[CreateClassificationView], None]
#: Handler for SERVE VIEW / STOP SERVING / CHECKPOINT VIEW / RESTORE VIEW.
ServingStatementHandler = Callable[[Statement], "ResultSet"]


class SQLExecutor:
    """Evaluates AST statements against a :class:`~repro.db.database.Database`."""

    def __init__(self, database) -> None:  # Database; untyped to avoid an import cycle
        self._database = database
        self._planner = Planner(database)
        self._classification_view_handler: ClassificationViewHandler | None = None
        self._serving_handler: ServingStatementHandler | None = None

    # -- extension hooks (the Hazy engine registers these) -----------------------------

    def set_classification_view_handler(self, handler: ClassificationViewHandler) -> None:
        """Install the callback that materializes ``CREATE CLASSIFICATION VIEW``."""
        self._classification_view_handler = handler

    def set_serving_handler(self, handler: ServingStatementHandler) -> None:
        """Install the callback executing the serving lifecycle statements."""
        self._serving_handler = handler

    # -- planning ------------------------------------------------------------------------

    def plan_select(self, statement: Select) -> SelectPlan:
        """Compile one SELECT into its plan."""
        return self._planner.plan_select(statement)

    def plan_for(self, statement: Statement) -> SelectPlan | None:
        """The plan this statement runs — or, under ``EXPLAIN``, prints — if it
        has one (the prepared-statement cache hook): a SELECT's own, and the
        locating plan of an UPDATE or DELETE."""
        if isinstance(statement, Explain):
            statement = statement.statement
        if isinstance(statement, Select):
            return self.plan_select(statement)
        if isinstance(statement, (Update, Delete)):
            return self._planner.plan_locate(statement)
        return None

    def _current_plan(self, statement: Statement, plan: SelectPlan | None) -> SelectPlan | None:
        """``plan`` if it may still be walked, else a fresh one.

        A supplied plan is only honoured while the catalog it was built
        against is unchanged: DDL on *any* connection sharing this database
        bumps the version — ``CREATE INDEX``/``DROP INDEX`` too, which change
        access paths without changing the namespace — and a stale plan holding
        a dropped or replaced table/view object must be rebuilt, not walked
        (nor printed by ``EXPLAIN``).
        """
        if plan is None or plan.catalog_version != self._database.catalog.version:
            plan = self.plan_for(statement)
        return plan

    def _run(self, plan: SelectPlan, parameters: list, context: object) -> list[dict]:
        rows, runtime = plan.run(self._database, parameters, context)
        trace = current_trace()
        if trace is not None:
            # Mirror the executed tree's per-node actuals as spans; the same
            # numbers EXPLAIN ANALYZE would report for this statement.
            trace.add_plan_tree(plan, runtime, trace.cross_thread_parent_id)
        return rows

    # -- entry point ---------------------------------------------------------------------

    def execute(
        self,
        statement: Statement,
        parameters: tuple | list | None = None,
        context: object = None,
        plan: SelectPlan | None = None,
    ) -> ResultSet:
        """Execute one parsed statement, binding ``?`` placeholders from ``parameters``.

        ``context`` is an opaque per-connection object (see
        :class:`repro.connection.Connection`) threaded through to served-view
        plan nodes so that reads against served views get that connection's
        monotonic read-your-writes session.  ``plan`` short-circuits planning
        (the prepared-statement cache passes the :meth:`plan_for` it already
        built; parameters are re-bound without re-planning).

        The parameters must fill the statement's ``?`` placeholders exactly
        (:attr:`Statement.placeholders`); any other number is refused here,
        before anything is planned or read.  Plain ``EXPLAIN`` binds nothing
        and may also be given none: it prints each ``?``.
        """
        parameters = list(parameters or [])
        supplied, expected = len(parameters), statement.placeholders
        prints_only = isinstance(statement, Explain) and not statement.analyze
        if supplied != expected and not (prints_only and supplied == 0):
            problem = (
                "not enough parameters for placeholders"
                if supplied < expected
                else "too many parameters for placeholders"
            )
            raise SQLExecutionError(
                f"{problem}: the statement has {expected}, {supplied} were supplied"
            )
        if isinstance(statement, CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTable):
            return self._execute_drop_table(statement)
        if isinstance(statement, CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, DropIndex):
            return self._execute_drop_index(statement)
        if isinstance(statement, CreateClassificationView):
            return self._execute_create_classification_view(statement)
        if isinstance(statement, Insert):
            return self._execute_insert(statement, parameters)
        if isinstance(statement, Select):
            rows = self._run(self._current_plan(statement, plan), parameters, context)
            return ResultSet(rows=rows, rowcount=len(rows), statement_type="SELECT")
        if isinstance(statement, (Update, Delete)):
            return self._execute_write(statement, parameters, context, plan)
        if isinstance(statement, _SERVING_STATEMENTS):
            return self._execute_serving_statement(statement)
        if isinstance(statement, Explain):
            return self._execute_explain(statement, parameters, context, plan)
        raise SQLExecutionError(f"unsupported statement type {type(statement).__name__}")

    def execute_many(
        self,
        statement: Statement,
        parameter_rows,
        context: object = None,
        plan: SelectPlan | None = None,
    ) -> int:
        """Execute one statement per parameter row; returns the total rowcount.

        The shared prepared-execution loop behind ``Database.executemany`` and
        ``Connection.executemany``: the statement is already parsed (and
        optionally planned) — each iteration only re-binds ``?``.
        """
        plan = self._current_plan(statement, plan)
        total = 0
        for parameters in parameter_rows:
            total += self.execute(statement, parameters, context, plan=plan).rowcount
        return total

    # -- DDL ----------------------------------------------------------------------------

    def _execute_create_table(self, statement: CreateTable) -> ResultSet:
        columns = [
            Column(defn.name, DataType.from_name(defn.type_name), nullable=defn.nullable)
            for defn in statement.columns
        ]
        primary_keys = [defn.name for defn in statement.columns if defn.primary_key]
        if len(primary_keys) > 1:
            raise SQLExecutionError("composite primary keys are not supported")
        schema = TableSchema(
            statement.table, columns, primary_key=primary_keys[0] if primary_keys else None
        )
        self._database.create_table(schema)
        return ResultSet(statement_type="CREATE TABLE")

    def _execute_drop_table(self, statement: DropTable) -> ResultSet:
        self._database.drop_table(statement.table)
        return ResultSet(statement_type="DROP TABLE")

    def _execute_create_index(self, statement: CreateIndex) -> ResultSet:
        """``CREATE INDEX``: build + backfill the tree, then bump the catalog
        version so every cached plan re-costs its access paths."""
        catalog = self._database.catalog
        if catalog.has_index(statement.name):
            raise SQLExecutionError(f"index {statement.name!r} already exists")
        if catalog.object_kind(statement.table) != "table":
            raise SQLPlanningError(
                f"CREATE INDEX target {statement.table!r} is not a base table",
                position=statement.table_position,
                token=statement.table,
            )
        table = catalog.table(statement.table)
        positions = statement.column_positions or (None,) * len(statement.columns)
        seen: set[str] = set()
        for column, position in zip(statement.columns, positions):
            if not table.schema.has_column(column):
                raise SQLPlanningError(
                    f"table {table.name!r} has no column {column!r}",
                    position=position,
                    token=column,
                )
            if column.lower() in seen:
                raise SQLPlanningError(
                    f"index {statement.name!r} lists column {column!r} more than once",
                    position=position,
                    token=column,
                )
            seen.add(column.lower())
        table.create_secondary_index(statement.name, statement.columns)
        catalog.register_index(statement.name, table.name)
        return ResultSet(statement_type="CREATE INDEX")

    def _execute_drop_index(self, statement: DropIndex) -> ResultSet:
        """``DROP INDEX``: detach the tree (maintenance stops) and bump the
        catalog version so cached ``SecondaryIndexRange`` plans re-plan rather
        than read through a no-longer-maintained index."""
        table = self._database.catalog.index_table(statement.name)
        table.drop_secondary_index(statement.name)
        self._database.catalog.unregister_index(statement.name)
        return ResultSet(statement_type="DROP INDEX")

    def _execute_create_classification_view(
        self, statement: CreateClassificationView
    ) -> ResultSet:
        if self._classification_view_handler is None:
            raise SQLExecutionError(
                "CREATE CLASSIFICATION VIEW requires a Hazy engine; "
                "construct repro.core.HazyEngine over this database first"
            )
        self._classification_view_handler(statement)
        return ResultSet(statement_type="CREATE CLASSIFICATION VIEW")

    # -- DML ----------------------------------------------------------------------------

    @staticmethod
    def _bind_values(literals: Sequence[object], supplied: Iterator[object]) -> list[object]:
        """``literals`` with each ``?`` replaced by the next supplied parameter
        (:meth:`execute` checked there is one for every ``?``)."""
        return [next(supplied) if value is PLACEHOLDER else value for value in literals]

    def _execute_insert(self, statement: Insert, parameters: list) -> ResultSet:
        table = self._database.catalog.table(statement.table)
        columns = list(statement.columns) or table.schema.column_names()
        supplied = iter(parameters)
        for literal_row in statement.rows:
            if len(literal_row) != len(columns):
                raise SQLExecutionError(
                    f"INSERT expects {len(columns)} values per row, got {len(literal_row)}"
                )
            table.insert(dict(zip(columns, self._bind_values(literal_row, supplied))))
        return ResultSet(rowcount=len(statement.rows), statement_type="INSERT")

    def _execute_write(
        self, statement: Update | Delete, parameters: list, context: object, plan
    ) -> ResultSet:
        """``UPDATE`` / ``DELETE``: locate, then write.

        The locating plan runs **to completion before the first row is
        written** — ``UPDATE t SET num = ? WHERE num = ?`` over an index on
        ``num`` must touch each matched row once.  ``SET``'s ``?``s precede
        WHERE's, so the plan binds the tail of the parameter list.
        """
        plan = self._current_plan(statement, plan)
        table = self._database.catalog.table(statement.table)
        supplied = iter(parameters)
        write = table.delete_by_key
        if isinstance(statement, Update):
            columns, literals = zip(*statement.assignments)
            changes = dict(zip(columns, self._bind_values(literals, supplied)))
            write = partial(table.update_by_key, changes=changes)
        (key_column,) = plan.select.columns
        keys = [row[key_column] for row in self._run(plan, list(supplied), context)]
        for key in keys:
            write(key)
        return ResultSet(rowcount=len(keys), statement_type=type(statement).__name__.upper())

    # -- serving lifecycle ---------------------------------------------------------------

    def _execute_serving_statement(self, statement: Statement) -> ResultSet:
        if self._serving_handler is None:
            raise SQLExecutionError(
                f"{type(statement).__name__} requires a Hazy engine; "
                "construct repro.core.HazyEngine over this database (or use "
                "repro.connect()) first"
            )
        return self._serving_handler(statement)

    # -- EXPLAIN [ANALYZE] ---------------------------------------------------------------

    def _execute_explain(
        self,
        statement: Explain,
        parameters: list,
        context: object = None,
        plan: SelectPlan | None = None,
    ) -> ResultSet:
        """Print the plan (and, under ANALYZE, execute it and report actuals).

        A cached ``plan`` (the connection layer prepares ``EXPLAIN <statement>``
        like the statement itself) is honoured under the same guard as
        execution.  ``UPDATE`` / ``DELETE`` print one row for the write — its
        estimate is the locating plan's — above that plan's rows, which are
        ``EXPLAIN SELECT <pk> FROM t WHERE ...``'s indented one level.
        """
        inner = statement.statement
        if statement.analyze and not isinstance(inner, Select):
            raise SQLExecutionError(
                "EXPLAIN ANALYZE supports SELECT statements only "
                "(executing DML under EXPLAIN would mutate the database)"
            )
        plan = self._current_plan(statement, plan)
        if statement.analyze:
            before = self._database.stats.snapshot()
            _, runtime = plan.run(self._database, parameters, context)
            io_delta = self._database.stats.diff(before)
            rows = plan.explain_rows(runtime, io_delta)
            return ResultSet(rows=rows, rowcount=len(rows), statement_type="EXPLAIN ANALYZE")
        if isinstance(inner, Select):
            rows = plan.explain_rows()
        elif plan is not None:
            write = {
                "node": f"{type(inner).__name__.upper()}({inner.table})",
                "estimated_seconds": plan.estimated_seconds,
                "detail": "write each located row by primary key (fires the table's "
                "triggers; attached views add their own cost)",
            }
            rows = [write] + [{**row, "node": "  " + row["node"]} for row in plan.explain_rows()]
        elif isinstance(inner, Insert):
            rows = [{
                "node": f"INSERT({inner.table})",
                "estimated_seconds": None,
                "detail": "DML statements run triggers; cost depends on attached views",
            }]
        else:
            target = getattr(
                inner, "table", getattr(inner, "view", getattr(inner, "name", None))
            )
            rows = [{
                "node": f"{type(inner).__name__}({target})",
                "estimated_seconds": None,
                "detail": "no cost estimate for this statement type",
            }]
        return ResultSet(rows=rows, rowcount=len(rows), statement_type="EXPLAIN")
