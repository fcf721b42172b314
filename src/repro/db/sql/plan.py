"""Typed logical/physical plan nodes for the SQL read path.

Every SQL read — base table, unserved classification view, served view, and
joins between them — is compiled by the :mod:`~repro.db.sql.planner` into a
tree of the nodes in this module, and then *executed by walking that tree*.
``EXPLAIN`` prints the same tree the executor runs; ``EXPLAIN ANALYZE``
executes it and reports the actual simulated seconds each node charged to the
cost ledgers next to the planner's estimate.

The node vocabulary:

========================  ==========================================================
``SeqScan``               sequential heap scan of a base table
``IndexRange``            primary-key index access (point form: a ``[k, k]`` range)
``SecondaryIndexRange``   B+-tree probe on a ``CREATE INDEX`` column + heap fetch
                          per match; optionally index-ordered with a fused LIMIT
``LogicalViewScan``       materialization of an opaque logical view callable
``ViewScan``              full materialization of a classification view
``ViewPointRead``         Single Entity read
``ViewMembers``           All Members read
``ViewRangeRead``         class + key-range predicate pushed into the view's reader
``TopK``                  ranked read (fused: the view's own top-k, no child)
``Sort`` / ``Limit``      ORDER BY without LIMIT / LIMIT without ORDER BY
``Filter`` / ``Project``  residual predicate re-check / column projection
``Aggregate``             ``COUNT(*)``
``HashJoin``              equi-join; a predicate-free served side is driven
                          through the read batcher with the probe side's keys
========================  ==========================================================

A view node reads through ``view.reader(...)`` — whoever answers the view's
reads *now* (:mod:`repro.core.reads`) — and never asks whether the view is
served.  ``ServedPointRead``, ``ServedScatterGather`` (All Members, and
``(v, contents)`` for the scan) and ``ServedRangeScan`` are the names
``EXPLAIN`` prints for ``ViewPointRead``, ``ViewMembers``/``ViewScan`` and
``ViewRangeRead`` when the planner saw a live server — batcher point reads,
shard scatter/gather under one epoch — not classes of their own.

Nodes are immutable after planning (a cached plan is re-executed by re-binding
``?`` parameters only); all per-execution state lives in a
:class:`PlanRuntime`.  View-access nodes ask the view for its reader at
execution time, so a plan cached while a view was served still answers
correctly after ``STOP SERVING`` (and vice versa) — the label records what the
planner *saw*, the reader guarantees the answer stays right.

**Execution protocol.**  There is one operator set and it speaks one
protocol: every node implements :meth:`PlanNode._produce`, which returns a list
of columnar :class:`Chunk` batches, and is driven through the single measured
entry point :meth:`PlanNode.execute`.  Scans and view reads emit column-array
chunks, ``Filter`` evaluates predicates as NumPy masks over whole columns (via
:mod:`repro.linalg.kernels`), ``Sort``/``TopK`` order them with one stable
``argsort``, ``Project``/``Aggregate``/``HashJoin`` consume and emit columns,
and rows are materialized exactly once, at the plan root
(:meth:`~repro.db.sql.planner.SelectPlan.run`).  The execution mode selects no
code path.  ``"batched"`` (the default) runs the operators at
:data:`DEFAULT_CHUNK_ROWS` rows per chunk and charges nothing beyond storage.
``"row"`` runs the *same* operators at one row per chunk and
:meth:`PlanNode.execute` adds the cost model's ``row_interpret_cpu`` per tuple
per operator (tag ``row_execute``) — the modelled tuple-at-a-time dispatch
overhead that vectorization amortizes, which is what the vectorized-execution
benchmark gate measures.  Simulated storage costs are identical in both modes.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from repro.db.sql.ast import PLACEHOLDER
from repro.db.types import DataType, coerce_value
from repro.exceptions import (
    ConfigurationError,
    KeyNotFoundError,
    SchemaError,
    SQLExecutionError,
)
from repro.linalg import kernels

__all__ = [
    "Predicate",
    "PlanRuntime",
    "NodeStats",
    "PlanNode",
    "Chunk",
    "DEFAULT_CHUNK_ROWS",
    "SeqScan",
    "IndexRange",
    "SecondaryIndexRange",
    "LogicalViewScan",
    "SystemTableScan",
    "ViewScan",
    "ViewPointRead",
    "ViewMembers",
    "ViewRangeRead",
    "TopK",
    "Sort",
    "Limit",
    "Filter",
    "Project",
    "Aggregate",
    "HashJoin",
    "compare_values",
]


@dataclass(frozen=True)
class Predicate:
    """One ``column op value`` conjunct as the planner resolved it.

    ``column`` is the bare (unqualified) name the produced rows carry;
    ``value`` is either a literal or :data:`PLACEHOLDER`, in which case
    ``param_index`` names the positional ``?`` parameter bound at execution.
    ``data_type`` is the column's declared type when the planner knows it.
    """

    column: str
    operator: str
    value: object
    param_index: int | None = None
    data_type: DataType | None = None

    def bind(self, parameters: list) -> object:
        """The concrete comparison value for this execution — the one place a
        WHERE value becomes concrete, so it is :func:`typed_bound` here."""
        value = self.value
        if value is PLACEHOLDER:
            if self.param_index is None or self.param_index >= len(parameters):
                raise SQLExecutionError("not enough parameters for placeholders")
            value = parameters[self.param_index]
        data_type = self.data_type
        if data_type is None or type(value) is data_type.spelling:
            return value  # (the common case costs this one test)
        return typed_bound(value, data_type)

    def render(self) -> str:
        """Stable text form for EXPLAIN output."""
        if self.value is PLACEHOLDER:
            return f"{self.column} {self.operator} ?"
        return f"{self.column} {self.operator} {self.value!r}"


def typed_bound(value: object, data_type: DataType | None) -> object:
    """``value`` spelled as a stored value of ``data_type`` when one equals it.

    ``3.0`` or ``True`` against an INTEGER key become ``3`` / ``1`` — every
    layer below (a shard router hashing ``repr(key)``, an answer echoing the
    key) then sees the stored key.  A bound no stored value can equal
    (``3.5``, ``'3'``, ``'abc'``) stays what it is and finds nothing.
    """
    spelling = data_type.spelling if data_type is not None else None
    if spelling is None or value is None or type(value) is spelling:
        return value
    try:
        coerced = coerce_value(value, data_type)
    except (SchemaError, OverflowError):
        return value
    return coerced if coerced == value else value


def compare_values(actual: object, operator: str, expected: object) -> bool:
    """SQL comparison semantics shared by every filtering node.

    ``actual`` is the column-side value, ``expected`` the bound.  ``=``/``!=``
    never raise; an ordering comparison against NULL is False; an ordering
    comparison between incomparable types raises :class:`SQLExecutionError`.
    """
    if operator == "=":
        return actual == expected
    if operator == "!=":
        return actual != expected
    if actual is None or expected is None:
        return False
    try:
        if operator == "<":
            return actual < expected
        if operator == "<=":
            return actual <= expected
        if operator == ">":
            return actual > expected
        if operator == ">=":
            return actual >= expected
    except TypeError:
        raise SQLExecutionError(
            f"cannot evaluate {operator!r} between a {type(actual).__name__} "
            f"column value and a {type(expected).__name__} bound"
        ) from None
    raise SQLExecutionError(f"unsupported operator {operator!r}")


def _tighten(predicates, parameters):
    """Tighten comparison conjuncts on one column to a single interval
    ``(low, high, include_low, include_high)`` (None = unbounded).

    Returns None when any bound binds to NULL: no row satisfies an ordering
    comparison with NULL, and ``col = NULL`` matches only NULL rows, which no
    index stores — the caller must not answer from an interval.
    """
    low = high = None
    include_low = include_high = True
    for predicate in predicates:
        value = predicate.bind(parameters)
        if value is None:
            return None
        if predicate.operator in ("=", ">", ">="):
            strict = predicate.operator == ">"
            if low is None or value > low or (value == low and strict):
                low, include_low = value, not strict
        if predicate.operator in ("=", "<", "<="):
            strict = predicate.operator == "<"
            if high is None or value < high or (value == high and strict):
                high, include_high = value, not strict
    return low, high, include_low, include_high


#: Rows per columnar batch in batched execution mode.
DEFAULT_CHUNK_ROWS = 1024

#: float64 represents integers exactly up to 2**53; larger ints stay on the
#: exact Python comparison path rather than risking a lossy conversion.
_EXACT_FLOAT_INT = 2**53


class Chunk:
    """A batch of rows, columnar when the producer is schema-shaped.

    Columnar chunks hold one Python list per column (exact original values,
    so results never depend on the chunk size) plus lazily-built NumPy
    ``float64`` views for numeric columns, which is what the vectorized
    ``Filter``/``Sort`` kernels operate on.  The row-backed form exists only
    for the two opaque producers (logical views and ``system.*`` tables),
    whose row shape is not known at plan time; every operator reads either
    form through :meth:`resolve` / :meth:`values`.
    """

    __slots__ = ("names", "columns", "rows", "length", "_numeric_cache")

    def __init__(self, names, columns, rows, length):
        self.names = names  # ordered column names (columnar form only)
        self.columns = columns  # dict name -> list of values
        self.rows = rows  # list of dict rows (row-backed form only)
        self.length = length
        self._numeric_cache: dict[str, np.ndarray | None] = {}

    @classmethod
    def columnar(cls, names: Sequence[str], columns: dict[str, list]) -> "Chunk":
        names = list(names)
        length = len(columns[names[0]]) if names else 0
        return cls(names, columns, None, length)

    @classmethod
    def of_rows(cls, rows: list[dict]) -> "Chunk":
        return cls(None, None, rows, len(rows))

    @classmethod
    def concat(cls, chunks: Sequence["Chunk"]) -> "Chunk":
        """One chunk holding every row of ``chunks``, in order."""
        chunks = [chunk for chunk in chunks if chunk.length]
        if len(chunks) == 1:
            return chunks[0]
        if chunks and all(
            chunk.columns is not None and chunk.names == chunks[0].names for chunk in chunks
        ):
            names = chunks[0].names
            return cls.columnar(
                names,
                {
                    name: list(chain.from_iterable(chunk.columns[name] for chunk in chunks))
                    for name in names
                },
            )
        return cls.of_rows([row for chunk in chunks for row in chunk.to_rows()])

    @property
    def is_columnar(self) -> bool:
        return self.columns is not None

    def to_rows(self) -> list[dict]:
        """Materialize as fresh row dicts (column order preserved).

        A columnar chunk becomes rows in one pass: ``zip(*columns)`` yields
        each row's values as a tuple and ``dict(zip(names, values))`` builds
        the row from it, so no Python code runs per column.  This serves every
        in-process SELECT and every response the wire server sends.
        """
        if self.rows is not None:
            return self.rows
        names = self.names
        columns = [self.columns[name] for name in names]
        return [dict(zip(names, values)) for values in zip(*columns)]

    def resolve(self, name: str) -> str | None:
        """Case-insensitive column lookup; None when the chunk lacks it."""
        if self.columns is not None:
            if name in self.columns:
                return name
            candidates = self.names
        else:
            candidates = self.rows[0] if self.rows else ()
        wanted = name.lower()
        return next((key for key in candidates if key.lower() == wanted), None)

    def values(self, resolved: str) -> list:
        """The value list for a column name returned by :meth:`resolve`."""
        if self.columns is not None:
            return self.columns[resolved]
        try:
            return [row[resolved] for row in self.rows]
        except KeyError:
            raise SQLExecutionError(
                f"the producer's rows do not all carry column {resolved!r}"
            ) from None

    def numeric(self, resolved: str) -> np.ndarray | None:
        """A ``float64`` view of the column, or None when it holds values the
        conversion could change (None, bools, strings, huge ints)."""
        if resolved in self._numeric_cache:
            return self._numeric_cache[resolved]
        view: np.ndarray | None = None
        if self.columns is not None:
            values = self.columns[resolved]
            if all(
                type(value) is float
                or (type(value) is int and -_EXACT_FLOAT_INT <= value <= _EXACT_FLOAT_INT)
                for value in values
            ):
                view = np.array(values, dtype=np.float64)
        self._numeric_cache[resolved] = view
        return view

    def filter(self, mask: np.ndarray) -> "Chunk":
        """A new chunk keeping only the rows where ``mask`` is True."""
        if self.columns is not None:
            kept = {
                name: list(compress(column, mask))
                for name, column in self.columns.items()
            }
            return Chunk.columnar(self.names, kept)
        return Chunk.of_rows(list(compress(self.rows, mask)))

    def take(self, order: Sequence[int]) -> "Chunk":
        """A new chunk holding rows ``order[0], order[1], ...`` of this one."""
        if self.columns is not None:
            return Chunk.columnar(
                self.names,
                {name: [column[i] for i in order] for name, column in self.columns.items()},
            )
        return Chunk.of_rows([self.rows[i] for i in order])

    def _slice(self, start: int, stop: int) -> "Chunk":
        if self.columns is not None:
            return Chunk.columnar(
                self.names,
                {name: column[start:stop] for name, column in self.columns.items()},
            )
        return Chunk.of_rows(self.rows[start:stop])

    def head(self, count: int) -> "Chunk":
        """A new chunk with only the first ``count`` rows."""
        return self if count >= self.length else self._slice(0, count)

    def split(self, size: int) -> list["Chunk"]:
        """This chunk cut into chunks of at most ``size`` rows (none when empty)."""
        if self.length <= size:
            return [self] if self.length else []
        return [self._slice(start, start + size) for start in range(0, self.length, size)]


def _rows_to_chunks(
    names: Sequence[str], rows, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> list["Chunk"]:
    """Turn schema-shaped row mappings into columnar chunks of ``chunk_rows``."""
    rows = list(rows)
    return Chunk.columnar(names, {name: [row[name] for row in rows] for name in names}).split(
        chunk_rows
    )


@dataclass
class NodeStats:
    """Per-node execution statistics collected by a :class:`PlanRuntime`."""

    rows: int = 0
    seconds: float = 0.0  # this node's own simulated seconds (children excluded)
    inclusive: float = 0.0  # including children


class PlanRuntime:
    """Everything one execution of a plan needs: parameters, session context,
    and the cost probe that attributes simulated seconds to nodes.

    ``context`` is the per-connection session registry threaded through from
    :class:`repro.connection.Connection`; served-view nodes use it to read on
    that connection's monotonic read-your-writes session.

    ``mode`` (default: the owning database's ``execution_mode``) selects no
    operator implementation.  It sets :attr:`chunk_rows` — ``"batched"`` runs
    the operators at :data:`DEFAULT_CHUNK_ROWS` rows per chunk, ``"row"`` at
    one — and :attr:`interpret_cpu`, the per-tuple dispatch charge
    :meth:`PlanNode.execute` adds: the cost model's ``row_interpret_cpu`` in
    row mode, zero in batched mode, which amortizes that dispatch away and
    so charges storage costs only.
    """

    def __init__(self, database, parameters, context, cost_probe, mode: str | None = None) -> None:
        self.database = database
        self.parameters = list(parameters or [])
        self.context = context
        self._cost_probe = cost_probe
        self.node_stats: dict[int, NodeStats] = {}
        self.mode = mode or getattr(database, "execution_mode", "batched")
        row_mode = self.mode == "row"
        self.chunk_rows = 1 if row_mode else DEFAULT_CHUNK_ROWS
        self.interpret_cpu = database.pool.cost_model.row_interpret_cpu if row_mode else 0.0
        #: Join probe keys, by ``id`` of the probe-side lookup node they drive.
        self.probe_keys: dict[int, list] = {}

    def cost(self) -> float:
        """Current simulated seconds across every ledger this plan touches."""
        return self._cost_probe()

    def stats_of(self, node: "PlanNode") -> NodeStats:
        return self.node_stats.get(id(node)) or NodeStats()


class PlanNode:
    """Base class: children, cost annotations, measured execution."""

    #: Which row count row mode's per-tuple dispatch charge applies to:
    #: ``"produced"`` (this node's output), ``"consumed"`` (what its children
    #: recorded producing) or None (the node interprets no tuples).
    interpreted: str | None = None

    def __init__(self, children=(), estimated_seconds: float | None = None, detail: str = ""):
        self.children: tuple[PlanNode, ...] = tuple(children)
        self.estimated_seconds = estimated_seconds
        self.detail = detail

    # -- execution -----------------------------------------------------------------------

    def execute(self, runtime: PlanRuntime) -> list[Chunk]:
        """Run this node (and its children), attributing simulated seconds.

        The one measured entry point: it charges row mode's interpretation
        cost (tag ``row_execute``) for the tuples this node handled and
        records the node's stats.
        """
        start = runtime.cost()
        chunks = self._produce(runtime)
        rows = sum(chunk.length for chunk in chunks)
        if runtime.interpret_cpu and self.interpreted is not None:
            handled = rows
            if self.interpreted == "consumed":
                handled = sum(runtime.stats_of(child).rows for child in self.children)
            if handled:
                runtime.database.stats.charge(handled * runtime.interpret_cpu, "row_execute")
        inclusive = runtime.cost() - start
        children_inclusive = sum(
            runtime.stats_of(child).inclusive for child in self.children
        )
        runtime.node_stats[id(self)] = NodeStats(
            rows=rows, seconds=inclusive - children_inclusive, inclusive=inclusive
        )
        return chunks

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:  # pragma: no cover - abstract
        """This node's output for one execution, as non-empty chunks."""
        raise NotImplementedError

    # -- explain -------------------------------------------------------------------------

    def label(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "PlanNode"]]:
        """Pre-order traversal yielding ``(depth, node)`` pairs."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


def _render_predicates(predicates) -> str:
    return " AND ".join(predicate.render() for predicate in predicates)


# ---------------------------------------------------------------------------
# Base-table access
# ---------------------------------------------------------------------------


def _scan_chunks(table, runtime: PlanRuntime) -> list[Chunk]:
    """The whole heap of ``table``, in physical order, as columnar chunks."""
    return _rows_to_chunks(
        table.schema.column_names(),
        (row for _, row in table.heap.scan()),
        runtime.chunk_rows,
    )


class SeqScan(PlanNode):
    """Sequential heap scan of a base table."""

    interpreted = "produced"

    def __init__(self, table, **kwargs):
        super().__init__(**kwargs)
        self.table = table

    def label(self) -> str:
        return f"SeqScan({self.table.name})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        return _scan_chunks(self.table, runtime)


class IndexRange(PlanNode):
    """Primary-key index access; the point form is the degenerate ``[k, k]`` range."""

    interpreted = "produced"

    def __init__(self, table, predicate: Predicate, **kwargs):
        super().__init__(**kwargs)
        self.table = table
        self.predicate = predicate

    def label(self) -> str:
        return f"IndexRange({self.table.name}.{self.predicate.render()})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        row = self.table.try_get_by_key(self.predicate.bind(runtime.parameters))
        return _rows_to_chunks(
            self.table.schema.column_names(), [row] if row is not None else [], runtime.chunk_rows
        )


class SecondaryIndexRange(PlanNode):
    """B+-tree probe over a ``CREATE INDEX`` key, plus a heap fetch per match
    (unless the scan is *covering*).

    ``predicates`` are the conjuncts the index serves.  For a single-column
    index they are ``=``, ``<``, ``<=``, ``>``, ``>=`` comparisons on the
    indexed column, tightened to one ``[low, high]`` interval at execution.
    For a composite index they follow the leftmost-prefix rule the planner
    enforced: equality conjuncts pinning the leading key columns plus at most
    one range over the next column, which the index turns into a contiguous
    tuple-key range.

    With ``order`` set the node is *index-ordered*: rows come back sorted by
    ``column`` (the leaf chain is walked forward for ``asc`` and backwards
    along the ``prev_leaf`` chain for ``desc``, so **both** directions
    early-exit) and the planner elided the ``Sort``/``TopK`` above; ``limit``
    then caps how many entries are walked, which is the fused top-k win.

    With ``covering`` set the SELECT's column set is a subset of the index
    key, so rows are rebuilt from the B+-tree keys themselves and the
    per-match heap fetch is skipped entirely — the index-only scan.

    Execution re-resolves the index by name and falls back to a full heap
    scan — sorted when ordered — whenever the index answer could differ from
    scan semantics: the index was dropped (a cached plan raced the DDL), a
    bound binds to NULL (``col = NULL`` matches NULL rows under this
    dialect's ``compare_values``, but NULLs are never indexed), a bound is of
    a type the keys cannot be ordered against, or an ordered read finds
    unindexed NULL rows the ordering must still place.  The
    residual ``Filter`` above re-checks every conjunct either way, so answers
    stay byte-identical to a scan.
    """

    interpreted = "produced"

    #: Sentinel distinguishing "fall back to a heap scan" from "provably
    #: empty result" (conflicting equality bindings on a prefix column).
    _EMPTY = object()

    def __init__(
        self,
        table,
        index_name: str,
        column: str,
        predicates,
        order: str | None = None,
        limit: int | None = None,
        key_columns: Sequence[str] | None = None,
        covering: bool = False,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.table = table
        self.index_name = index_name
        self.column = column
        self.predicates = tuple(predicates)
        self.order = order
        self.limit = limit
        self.key_columns = tuple(key_columns) if key_columns else (column,)
        self.covering = covering

    def label(self) -> str:
        parts = [_render_predicates(self.predicates) or "unbounded"]
        if self.order is not None:
            parts.append(f"order={self.column} {self.order}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.covering:
            parts.append("covering")
        return f"SecondaryIndexRange({self.table.name}.{self.index_name}: {', '.join(parts)})"

    def _composite_probe(self, parameters):
        """Resolve the composite probe: equality prefix values + range bounds.

        Returns None for scan fallback (a NULL binding), :data:`_EMPTY` when
        conflicting equality bindings make the result provably empty, or
        ``(eq_values, low, high, incl_low, incl_high)``.
        """
        by_column: dict[str, list[Predicate]] = {}
        for predicate in self.predicates:
            by_column.setdefault(predicate.column.lower(), []).append(predicate)
        eq_values: list[object] = []
        bounds = (None, None, True, True)
        for key_column in self.key_columns:
            preds = by_column.get(key_column.lower())
            if not preds:
                break
            if all(p.operator == "=" for p in preds) and len(eq_values) < len(self.key_columns) - 1:
                values = [p.bind(parameters) for p in preds]
                if any(value is None for value in values):
                    return None
                first = values[0]
                if any(
                    not (value == first and type(value) is type(first))
                    for value in values[1:]
                ):
                    return self._EMPTY
                eq_values.append(first)
                continue
            # Range column: tighten all its conjuncts to one interval.
            bounds = _tighten(preds, parameters)
            if bounds is None:
                return None
            break
        return (tuple(eq_values), *bounds)

    def _matching_entries(self, index, parameters):
        """The probe's index entries — rids, or ``(key, rid)`` when covering.

        Returns None when the index cannot answer and the caller must fall
        back to a heap scan.  Applies the fused ``limit`` by early-exiting
        the leaf walk in either direction.
        """
        reverse = self.order == "desc"
        if len(self.key_columns) == 1:
            bounds = _tighten(self.predicates, parameters)
            if bounds is None:
                return None
            low, high, include_low, include_high = bounds
            scan = index.scan(
                low, high, include_low, include_high,
                reverse=reverse, with_keys=self.covering,
            )
        else:
            probe = self._composite_probe(parameters)
            if probe is None:
                return None
            if probe is self._EMPTY:
                return []
            eq_values, low, high, include_low, include_high = probe
            scan = index.scan(
                low, high, include_low, include_high,
                equalities=eq_values, reverse=reverse, with_keys=self.covering,
            )
        if self.limit is not None:
            entries = []
            for entry in scan:
                entries.append(entry)
                if len(entries) >= self.limit:
                    break
            return entries
        return list(scan)

    def _resolve_entries(self, runtime: PlanRuntime):
        """Index entries for this execution, or None when falling back."""
        index = self.table.secondary_index(self.index_name)
        if index is None:
            return None
        if not index.covers_all_rows(self.table.row_count()):
            # Some live rows are unindexed (NULL/NaN in a key column).  For a
            # single-column index with bound predicates those rows could never
            # match anyway, but any of these reads must see them:
            if self.order is not None:
                # index order would misplace (drop) rows the ordering must place
                return None
            if len(self.key_columns) > 1:
                # a row NULL in one key column may still match a partial-prefix
                # probe on the others, yet is absent from the tree
                return None
            if not self.predicates:
                # an unbounded read has no predicate to exclude the NULL rows
                return None
        try:
            return self._matching_entries(index, runtime.parameters)
        except TypeError:
            # A bound the key type cannot be ordered against: answer from the
            # scan, whose residual Filter raises the documented error.
            return None

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        entries = self._resolve_entries(runtime)
        if entries is None:
            chunks = _scan_chunks(self.table, runtime)
            if self.order is None:
                return chunks
            ordered = _sorted_chunk(chunks, self.column, self.order == "desc")
            return ordered.split(runtime.chunk_rows)
        if self.covering:
            # Rebuild the (partial) rows from the tree keys — no heap access.
            single = len(self.key_columns) == 1
            rows = (dict(zip(self.key_columns, (key,) if single else key)) for key, _ in entries)
            return _rows_to_chunks(self.key_columns, rows, runtime.chunk_rows)
        return _rows_to_chunks(
            self.table.schema.column_names(),
            (self.table.heap.read(rid, sequential=False) for rid in entries),
            runtime.chunk_rows,
        )


class LogicalViewScan(PlanNode):
    """Materialization of a logical (callable-backed) view."""

    def __init__(self, name: str, producer, **kwargs):
        super().__init__(**kwargs)
        self.name = name
        self.producer = producer

    def label(self) -> str:
        return f"LogicalViewScan({self.name})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        return Chunk.of_rows([dict(row) for row in self.producer()]).split(runtime.chunk_rows)


class SystemTableScan(PlanNode):
    """Materialization of a virtual ``system.*`` observability table.

    Like :class:`LogicalViewScan`, the producer is a callable returning row
    mappings; unlike every other access path it reads process state rather
    than stored data, so its estimated cost is pinned to zero — observability
    reads must never perturb the cost model they report on.
    """

    def __init__(self, name: str, producer, **kwargs):
        kwargs.setdefault("estimated_seconds", 0.0)
        super().__init__(**kwargs)
        self.name = name
        self.producer = producer

    def label(self) -> str:
        return f"SystemTableScan({self.name})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        return Chunk.of_rows([dict(row) for row in self.producer()]).split(runtime.chunk_rows)


# ---------------------------------------------------------------------------
# Classification-view access
# ---------------------------------------------------------------------------


class _ViewNode(PlanNode):
    """Shared machinery for nodes reading a classification view.

    Every read goes to ``view.reader(runtime.context)`` — the view's own
    maintainer, or this connection's session on its server — asked for at
    execution, so a cached plan stays right across ``SERVE VIEW`` / ``STOP
    SERVING``.  ``served`` is what the planner saw: it only picks the name
    ``EXPLAIN`` prints (:attr:`names`: unserved, served).
    """

    names: tuple[str, str]

    def __init__(self, view, served: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.view = view
        self.served = served

    def _label(self, argument: str) -> str:
        return f"{self.names[self.served]}({self.view.name}{argument})"

    def _chunks(self, runtime: PlanRuntime, ids: list, labels: list) -> list[Chunk]:
        """The view's ``(key, class)`` columns for ``ids`` and their binary labels."""
        key_column = self.view.definition.view_key
        shown = {label: self.view.from_binary_label(label) for label in set(labels)}
        columns = {key_column: ids, "class": [shown[label] for label in labels]}
        return Chunk.columnar([key_column, "class"], columns).split(runtime.chunk_rows)

    def _binary_class(self, value: object) -> int | None:
        """Map a user-facing class literal to {-1, +1}; None when unmappable."""
        try:
            return self.view.to_binary_label(value)
        except ConfigurationError:
            return None


class ViewScan(_ViewNode):
    """Full materialization of a classification view (one coherent epoch when served)."""

    names = ("ViewScan", "ServedScatterGather")

    def label(self) -> str:
        return self._label(", contents" if self.served else "")

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        contents = self.view.reader(runtime.context).contents()
        return self._chunks(runtime, list(contents), list(contents.values()))


class ViewPointRead(_ViewNode):
    """Single Entity read; planned against a live server it goes through the
    request batcher, session-consistent, and prints as ``ServedPointRead``.

    With ``predicate=None`` the node is a *probe-side lookup* for
    :class:`HashJoin`: it has no key of its own and reads the probe keys its
    join left in :attr:`PlanRuntime.probe_keys`, all driven through the read
    batcher in one coalesced burst — each spelled as the view's key column
    stores it (``key_type``, :func:`typed_bound`), as a bound predicate's is.
    """

    names = ("ViewPointRead", "ServedPointRead")

    def __init__(self, view, predicate: Predicate | None, key_type=None, **kwargs):
        super().__init__(view, **kwargs)
        self.predicate = predicate
        self.is_probe_lookup = predicate is None
        self.key_type = key_type

    def label(self) -> str:
        return self._label(", batch" if self.is_probe_lookup else f".{self.predicate.render()}")

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        reader = self.view.reader(runtime.context)
        if self.is_probe_lookup:
            keys = runtime.probe_keys.get(id(self))
            if keys is None:  # only a HashJoin may drive this node
                raise SQLExecutionError(
                    "a probe-side ServedPointRead executes only through its join"
                )
            found = reader.labels_of([typed_bound(key, self.key_type) for key in keys])
            return self._chunks(runtime, list(found), list(found.values()))
        key = self.predicate.bind(runtime.parameters)
        try:
            label = reader.label_of(key)
        except KeyNotFoundError:
            return []
        return self._chunks(runtime, [key], [label])


class ViewMembers(_ViewNode):
    """All Members read; ``ServedScatterGather`` across the shards when served."""

    names = ("ViewMembers", "ServedScatterGather")

    def __init__(self, view, class_predicate: Predicate, **kwargs):
        super().__init__(view, **kwargs)
        self.class_predicate = class_predicate

    def label(self) -> str:
        return self._label(f", {self.class_predicate.render()}")

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        label = self._binary_class(self.class_predicate.bind(runtime.parameters))
        if label is None:
            return []
        members = self.view.reader(runtime.context).all_members(label)
        return self._chunks(runtime, list(members), [label] * len(members))


class ViewRangeRead(_ViewNode):
    """``class = x AND <key> <op> k`` pushed into the view's reader.

    The range over the entity key is resolved at execution time from the
    pushed conjuncts (placeholders included), tightened to a single
    ``[low, high]`` interval, and answered by ``range_scan`` — one scan that
    classifies only in-range candidates instead of materializing the view
    (``ServedRangeScan`` when served: a shard operator, scattered to every
    shard under one epoch, gathering only the in-class, in-range ids).
    A bound that binds to NULL matches no row, so the read is empty.
    """

    names = ("ViewRangeRead", "ServedRangeScan")

    def __init__(self, view, class_predicate: Predicate, range_predicates, **kwargs):
        super().__init__(view, **kwargs)
        self.class_predicate = class_predicate
        self.range_predicates = tuple(range_predicates)

    def label(self) -> str:
        return self._label(
            f", {_render_predicates((self.class_predicate, *self.range_predicates))}"
        )

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        label = self._binary_class(self.class_predicate.bind(runtime.parameters))
        if label is None:
            return []
        try:
            bounds = _tighten(self.range_predicates, runtime.parameters)
            if bounds is None:
                return []
            members = self.view.reader(runtime.context).range_scan(label, *bounds)
        except TypeError as exc:
            raise SQLExecutionError(
                f"the range bounds on {self.view.definition.view_key!r} cannot be "
                f"ordered against the keys of view {self.view.name!r}: {exc}"
            ) from exc
        return self._chunks(runtime, list(members), [label] * len(members))


# ---------------------------------------------------------------------------
# Interior operators
# ---------------------------------------------------------------------------


class Filter(PlanNode):
    """Residual predicate re-check above an access path."""

    interpreted = "consumed"

    def __init__(self, child: PlanNode, predicates, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.predicates = tuple(predicates)

    def label(self) -> str:
        return f"Filter({_render_predicates(self.predicates)})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        filtered = (
            self._filter_chunk(chunk, runtime) for chunk in self.children[0].execute(runtime)
        )
        return [chunk for chunk in filtered if chunk.length]

    def _filter_chunk(self, chunk: Chunk, runtime: PlanRuntime) -> Chunk:
        """Evaluate the conjuncts over whole columns; NumPy masks on numeric
        columns (via :func:`repro.linalg.kernels.compare`), per-value
        :func:`compare_values` — the scalar definition — otherwise."""
        mask: np.ndarray | None = None
        kept = chunk.length
        for predicate in self.predicates:
            resolved = chunk.resolve(predicate.column)
            if resolved is None:
                raise SQLExecutionError(
                    f"unknown column {predicate.column!r} in WHERE clause"
                )
            bound = predicate.bind(runtime.parameters)
            predicate_mask: np.ndarray | None = None
            if type(bound) is float or (
                type(bound) is int and -_EXACT_FLOAT_INT <= bound <= _EXACT_FLOAT_INT
            ):
                numeric = chunk.numeric(resolved)
                if numeric is not None:
                    predicate_mask = kernels.compare(numeric, predicate.operator, bound)
            if predicate_mask is None:
                predicate_mask = np.fromiter(
                    (
                        compare_values(value, predicate.operator, bound)
                        for value in chunk.values(resolved)
                    ),
                    dtype=bool,
                    count=chunk.length,
                )
            mask = predicate_mask if mask is None else mask & predicate_mask
            kept = np.count_nonzero(mask)
            if not kept:
                break
        return chunk if mask is None or kept == chunk.length else chunk.filter(mask)


def _sort_key(value: object) -> tuple:
    """The scalar definition of ORDER BY: NULLs sort after every value, so
    they come last ascending and first descending."""
    return (value is None, value)


def _sorted_chunk(
    chunks: list[Chunk], column: str, descending: bool, limit: int | None = None
) -> Chunk:
    """The first ``limit`` rows of ``chunks`` ordered by ``column``, as one chunk.

    A NaN-free numeric sort column is ordered by one stable ``np.argsort``
    (negated for descending — stability then preserves the original order of
    equal keys, exactly like a stable reverse-order sort).  Anything else
    takes the Python sort under :func:`_sort_key`: NULLs last ascending,
    NULLs first descending, ties in arrival order either way.
    """
    merged = Chunk.concat(chunks)
    if merged.length == 0:
        return merged
    resolved = merged.resolve(column)
    if resolved is None:
        raise SQLExecutionError(f"unknown ORDER BY column {column!r}")
    numeric = merged.numeric(resolved)
    if numeric is not None and not np.isnan(numeric).any():
        order = np.argsort(-numeric if descending else numeric, kind="stable").tolist()
    else:
        keys = [_sort_key(value) for value in merged.values(resolved)]
        order = sorted(range(merged.length), key=keys.__getitem__, reverse=descending)
    return merged.take(order[:limit])


class Sort(PlanNode):
    """Full sort for ORDER BY without LIMIT."""

    interpreted = "consumed"

    def __init__(self, child: PlanNode, column: str, descending: bool, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.column = column
        self.descending = descending

    def label(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"Sort(by={self.column} {direction})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        chunks = self.children[0].execute(runtime)
        return _sorted_chunk(chunks, self.column, self.descending).split(runtime.chunk_rows)


class TopK(PlanNode):
    """Ranked read: ORDER BY + LIMIT.

    With a child, a stable sort-and-slice over the child's rows.  Without one
    (``view`` set), the *fused* top-k answered by the view's reader — the
    maintainer's heap, or per-shard heaps merged across the shards by the
    server and driven through the session — it consumes no child rows, so
    row mode charges it no interpretation.
    """

    interpreted = "consumed"

    def __init__(
        self,
        k: int,
        column: str,
        descending: bool,
        child: PlanNode | None = None,
        view=None,
        **kwargs,
    ):
        super().__init__(children=(child,) if child is not None else (), **kwargs)
        self.k = k
        self.column = column
        self.descending = descending
        self.view = view

    def label(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"TopK(k={self.k}, by={self.column} {direction})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        if self.view is None:
            chunks = self.children[0].execute(runtime)
            ranked = _sorted_chunk(chunks, self.column, self.descending, limit=self.k)
            return ranked.split(runtime.chunk_rows)
        key_column = self.view.definition.view_key
        ranked = self.view.reader(runtime.context).top_k(self.k, label=1)
        columns = {
            key_column: [entity_id for entity_id, _ in ranked],
            "class": [self.view.from_binary_label(1)] * len(ranked),
            "margin": [margin for _, margin in ranked],
        }
        return Chunk.columnar([key_column, "class", "margin"], columns).split(runtime.chunk_rows)


class Limit(PlanNode):
    """LIMIT without ORDER BY."""

    interpreted = "produced"

    def __init__(self, child: PlanNode, count: int, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.count = count

    def label(self) -> str:
        return f"Limit({self.count})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        out: list[Chunk] = []
        remaining = self.count
        for chunk in self.children[0].execute(runtime):
            if remaining <= 0:
                break
            taken = chunk.head(remaining)
            out.append(taken)
            remaining -= taken.length
        return out


class Project(PlanNode):
    """Column projection; ``lookups`` are the row keys resolved at plan time."""

    interpreted = "consumed"

    def __init__(self, child: PlanNode, lookups, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.lookups = tuple(lookups)

    def label(self) -> str:
        return f"Project({', '.join(self.lookups)})"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        out: list[Chunk] = []
        for chunk in self.children[0].execute(runtime):
            columns: dict[str, list] = {}
            for wanted in self.lookups:
                resolved = chunk.resolve(wanted)
                if resolved is None:
                    raise SQLExecutionError(f"unknown column {wanted!r} in SELECT list")
                columns[resolved] = chunk.values(resolved)
            out.append(Chunk.columnar(list(columns), columns))
        return out


class Aggregate(PlanNode):
    """``COUNT(*)`` over the child's rows."""

    interpreted = "consumed"

    def __init__(self, child: PlanNode, **kwargs):
        super().__init__(children=(child,), **kwargs)

    def label(self) -> str:
        return "Aggregate(count)"

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        # Counting never materializes rows: chunk lengths sum directly.
        total = sum(chunk.length for chunk in self.children[0].execute(runtime))
        return [Chunk.columnar(["count"], {"count": [total]})]


class HashJoin(PlanNode):
    """Inner equi-join: build a hash table on the right side, probe with the left.

    When the right child is a probe-side :class:`ViewPointRead` (a served
    view with no pushable predicate), the left side runs first and its join
    keys drive one batched lookup through the server's read batcher instead of
    materializing the whole view.
    """

    interpreted = "consumed"

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_key: str,
        right_key: str,
        right_renames: dict[str, str],
        **kwargs,
    ):
        super().__init__(children=(left, right), **kwargs)
        self.left_key = left_key
        self.right_key = right_key
        self.right_renames = dict(right_renames)

    def label(self) -> str:
        return f"HashJoin({self.left_key} = {self.right_key})"

    @staticmethod
    def _key_values(chunk: Chunk, key: str) -> list:
        resolved = chunk.resolve(key.rpartition(".")[2])
        if resolved is None:
            raise SQLExecutionError(f"unknown join column {key!r}")
        return chunk.values(resolved)

    def _produce(self, runtime: PlanRuntime) -> list[Chunk]:
        left_node, right_node = self.children
        left = Chunk.concat(left_node.execute(runtime))
        left_keys = self._key_values(left, self.left_key) if left.length else []
        if getattr(right_node, "is_probe_lookup", False):
            runtime.probe_keys[id(right_node)] = list(dict.fromkeys(left_keys))
        right = Chunk.concat(right_node.execute(runtime))
        if not left.length or not right.length:
            return []
        build: dict[object, list[int]] = {}
        for position, value in enumerate(self._key_values(right, self.right_key)):
            build.setdefault(value, []).append(position)
        left_order: list[int] = []
        right_order: list[int] = []
        for position, value in enumerate(left_keys):
            for match in build.get(value, ()):
                left_order.append(position)
                right_order.append(match)
        columns = dict(left.take(left_order).columns)
        for name, values in right.take(right_order).columns.items():
            columns[self.right_renames.get(name.lower(), name)] = values
        return Chunk.columnar(list(columns), columns).split(runtime.chunk_rows)
