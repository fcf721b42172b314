"""A small SQL dialect for the relational substrate.

The dialect covers what the paper's examples and experiments need:

* ``CREATE TABLE`` / ``DROP TABLE``
* ``CREATE INDEX name ON table (column)`` and the composite form
  ``CREATE INDEX name ON table (col_a, col_b, ...)`` / ``DROP INDEX name`` —
  secondary B+-tree indexes on base-table columns, maintained inline on every
  write and chosen by the planner whenever the cost model prices the index
  probe below the sequential scan.  Composite indexes key on tuples and serve
  **leftmost-prefix** predicates (equalities pinning the leading columns plus
  at most one range on the next); a row with NULL in *any* key column is
  unindexed.  When the SELECT's columns all live inside the index key the
  planner emits the **covering** (index-only) variant, which skips the
  per-match heap fetch entirely
* ``INSERT INTO ... VALUES`` (with ``?`` placeholders for prepared statements)
* ``SELECT`` with ``*``, column lists or ``COUNT(*)``, ``WHERE`` conjunctions
  of simple comparisons (columns optionally qualified as ``t.col``),
  ``ORDER BY``, ``LIMIT``, and a single inner equi-join
  (``FROM t JOIN v ON t.id = v.id``)
* ``UPDATE ... SET ... WHERE`` and ``DELETE FROM ... WHERE``
* ``CREATE CLASSIFICATION VIEW`` — the model-based view DDL of Example 2.1
* the serving lifecycle verbs (``SERVE VIEW`` / ``STOP SERVING`` /
  ``CHECKPOINT VIEW ... TO [WITH (incremental = true, parent = '...')]`` /
  ``RESTORE VIEW ... FROM``), all taking ``WITH (...)`` options, each a
  literal named once; ``SERVE`` and ``RESTORE`` take ``shards`` and ``wal``.
  Read batching has no option: a point-read round never waits, and drains
  the reads that queued behind the previous one
* ``EXPLAIN`` and ``EXPLAIN ANALYZE`` (the latter also reports buffer-pool
  pages read/written by the statement)
* the virtual ``system.*`` observability tables, readable with plain
  ``SELECT`` (filters/ORDER BY/LIMIT apply; joins are rejected):

  - ``system.metrics`` — every registry sample as ``(name, kind, value)``
  - ``system.served_views`` — one dashboard row per live ``SERVE VIEW``
  - ``system.connections`` — one row per live wire connection when a
    :class:`repro.net.server.SQLServer` fronts this database (empty otherwise)
  - ``system.plan_cache`` — per-connection plan-cache hit/miss/invalidation
  - ``system.slow_queries`` — statements whose simulated cost met
    ``Observability.slow_query_seconds``, with span counts
  - ``system.traces`` — the recent-statement ring flattened to one row per
    span (parse → plan → execute → plan nodes / batcher rounds / shards)

  System-table scans cost zero simulated seconds by construction —
  observability reads must never perturb the cost model they report on.

The read path is **plan-first**; the pipeline is::

    SQL text --tokenize/parse--> AST            (lexer.py, parser.py, ast.py)
        --Planner.plan_select--> logical plan    (planner.py: access-path choice,
                                                  predicate pushdown, validation)
        --cost annotation-----> physical plan    (plan.py: SeqScan, IndexRange,
                                                  SecondaryIndexRange,
                                                  ViewPointRead, ViewMembers,
                                                  ViewRangeRead, ViewScan, TopK,
                                                  Filter, Project, HashJoin, ...)
        --SQLExecutor---------> rows             (executor.py walks the tree)

A classification-view node reads through ``view.reader()`` — the view's own
maintainer, or the server it is behind — and the planner takes its estimates
from that reader; ``EXPLAIN`` prints a view node planned against a live server
under its served name (``ServedPointRead``, ``ServedScatterGather``,
``ServedRangeScan``).

There is **one executor**: every plan node returns its answer as one columnar
:class:`~repro.db.sql.plan.Chunk` (NumPy predicate kernels in ``Filter``, one
stable ``argsort`` in ``Sort``/``TopK``) and rows are materialized once, at
the plan root.  Operators add no charge beyond the
storage they touch, and an index-only scan's ``EXPLAIN`` detail carries
``covering=true``.

``EXPLAIN`` prints exactly the tree the executor would walk; ``EXPLAIN
ANALYZE`` walks it and reports actual vs estimated simulated seconds per
node.  Planning errors (unknown columns, ambiguous join references,
unsupported read shapes) surface at plan time as
:class:`~repro.exceptions.SQLPlanningError` carrying the parser's
machine-readable ``position``/``token`` diagnostics.  The connection layer
(:mod:`repro.connection`) caches ``SelectPlan`` objects per SQL text, so
repeated statements re-bind ``?`` parameters without re-parsing or
re-planning.

The dialect is also servable over TCP (:mod:`repro.net`).  The wire format is
deliberately boring: every frame is a 4-byte big-endian length followed by
that many bytes of UTF-8 JSON, capped at 64 MiB.  The server greets with
``{"server": "repro-serve", "protocol": 1, "connection": <name>}``; requests
are ``{"op": "query", "sql": ..., "params": [...]}`` (plus ``executemany`` /
``ping`` / ``goodbye``), responses ``{"ok": true, "rows": ..., "rowcount":
..., "statement_type": ...}`` or ``{"ok": false, "error": {...}}`` where the
error object names the exception class and carries the same
``position``/``token`` diagnostics described above, so network clients see
exactly the errors in-process callers do.
"""

from repro.db.sql.ast import (
    ColumnDefinition,
    Comparison,
    CreateClassificationView,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Explain,
    Insert,
    Join,
    Select,
    Update,
)
from repro.db.sql.lexer import Token, TokenType, tokenize
from repro.db.sql.parser import parse
from repro.db.sql.plan import PlanNode
from repro.db.sql.planner import Planner, SelectPlan
from repro.db.sql.executor import SQLExecutor

__all__ = [
    "tokenize",
    "Token",
    "TokenType",
    "parse",
    "SQLExecutor",
    "Planner",
    "SelectPlan",
    "PlanNode",
    "CreateTable",
    "DropTable",
    "CreateIndex",
    "DropIndex",
    "ColumnDefinition",
    "Insert",
    "Select",
    "Update",
    "Delete",
    "Comparison",
    "Join",
    "Explain",
    "CreateClassificationView",
]
