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
``SystemTableScan``       materialization of a virtual ``system.*`` table
``ViewScan``              full materialization of a classification view
``ViewPointRead``         Single Entity read
``ViewMembers``           All Members read
``ViewRangeRead``         class + key-range predicate pushed into the view's reader
``TopK``                  ranked read (fused: the view's own top-k, no child)
``Sort`` / ``Limit``      ORDER BY without LIMIT / LIMIT without ORDER BY
``Filter`` / ``Project``  residual predicate re-check / column projection
``Aggregate``             ``COUNT(*)``
``HashJoin``              equi-join; a predicate-free view side on the view key
                          is one batched read of the probe side's keys
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
protocol: every node implements :meth:`PlanNode._produce`, which returns its
whole answer as one columnar :class:`Chunk` (zero rows is an answer too), and
is driven through the single measured entry point :meth:`PlanNode.execute`.
Scans and view reads emit column arrays, ``Filter`` evaluates predicates as
NumPy masks over whole columns (via :mod:`repro.linalg.kernels`),
``Sort``/``TopK`` order them with one stable ``argsort``,
``Project``/``Aggregate``/``HashJoin`` consume and emit columns, and rows are
materialized exactly once, at the plan root
(:meth:`~repro.db.sql.planner.SelectPlan.run`).  Operators charge nothing
beyond the storage they touch, so only a leaf and ``HashJoin`` (whose two
children's figures it would otherwise have to add) read the cost probe before
and after they run; ``Filter``, ``Project``, ``Limit``, ``Sort``,
``Aggregate`` and a ``TopK`` over a child take their one child's figure, and a
point read (``Project`` over ``ViewPointRead``) reads the probe twice.  An
operator over a zero-row child returns it without resolving a column: a
``system.*`` table with no rows has none.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from repro.db.sql.ast import PLACEHOLDER
from repro.db.types import DataType, KeyRange, coerce_value
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
    "SeqScan",
    "IndexRange",
    "SecondaryIndexRange",
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
    "leftmost_prefix",
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
            value = parameters[self.param_index]
        data_type = self.data_type
        if data_type is None or type(value) is data_type.spelling:
            return value  # (the common case costs this one test)
        return typed_bound(value, data_type)

    def render(self) -> str:
        """Stable text form for EXPLAIN output, the value spelled as SQL."""
        if self.value is PLACEHOLDER:
            literal = "?"
        elif self.value is None:
            literal = "NULL"
        elif isinstance(self.value, bool):
            literal = "TRUE" if self.value else "FALSE"
        elif isinstance(self.value, str):
            literal = "'" + self.value.replace("'", "''") + "'"
        elif isinstance(self.value, float) and math.isinf(self.value):
            literal = "1e999" if self.value > 0 else "-1e999"  # the lexer reads back ±inf
        else:
            literal = repr(self.value)
        return f"{self.column} {self.operator} {literal}"


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


def _key_range(predicates, parameters) -> KeyRange | None:
    """The one interval this execution's bindings of ``predicates`` admit
    (:meth:`KeyRange.tighten`; None when a bound binds to NULL)."""
    return KeyRange.tighten((p.operator, p.bind(parameters)) for p in predicates)


#: Operators a B+-tree over a key can answer (NULL-valued literals excluded).
_INDEXABLE_OPERATORS = ("=", "<", "<=", ">", ">=")


class KeyPrefix(NamedTuple):
    """The conjuncts an index keyed on a tuple of columns answers, by key column.

    ``pinned`` holds one group of conjuncts per leading key column that
    carries an ``=`` (so they admit one value, or none); ``range`` the
    conjuncts over the next key column when it carries only ranges (empty
    when it carries none).
    """

    pinned: tuple[tuple[Predicate, ...], ...]
    range: tuple[Predicate, ...]

    @property
    def conjuncts(self) -> tuple[Predicate, ...]:
        """Every conjunct the probe answers, in key-column order."""
        return (*chain.from_iterable(self.pinned), *self.range)


def leftmost_prefix(key_columns: Sequence[str], predicates) -> KeyPrefix:
    """The leftmost-prefix rule: which of ``predicates`` a B+-tree keyed on
    the tuple of ``key_columns`` answers as one contiguous key range.

    Walks the key columns in order: a column whose servable conjuncts include
    an ``=`` is pinned and the walk goes on; the first column with only range
    conjuncts ends it with that range, and a column with none ends it bare.
    ``col = NULL`` is never servable (it matches NULL rows under this
    dialect, which a B+-tree never stores).
    """
    by_column: dict[str, list[Predicate]] = {}
    for predicate in predicates:
        if predicate.operator in _INDEXABLE_OPERATORS and predicate.value is not None:
            by_column.setdefault(predicate.column.lower(), []).append(predicate)
    pinned: list[tuple[Predicate, ...]] = []
    for column in key_columns:
        conjuncts = tuple(by_column.get(column.lower(), ()))
        if not any(p.operator == "=" for p in conjuncts):
            return KeyPrefix(tuple(pinned), conjuncts)
        pinned.append(conjuncts)
    return KeyPrefix(tuple(pinned), ())


#: float64 represents integers exactly up to 2**53; larger ints stay on the
#: exact Python comparison path rather than risking a lossy conversion.
_EXACT_FLOAT_INT = 2**53


class Chunk:
    """A node's rows, held as columns.

    A chunk holds one Python list per column (exact original values) plus
    lazily-built NumPy ``float64`` views for numeric columns, which is what
    the vectorized ``Filter``/``Sort`` kernels operate on.  Every operator
    reads a chunk through :meth:`resolve` / :meth:`values`.
    """

    __slots__ = ("names", "columns", "length", "_numeric_cache")

    def __init__(self, names, columns, length):
        self.names = names  # ordered column names
        self.columns = columns  # dict name -> list of values
        self.length = length
        self._numeric_cache: dict[str, np.ndarray | None] = {}

    @classmethod
    def columnar(cls, names: Sequence[str], columns: dict[str, list]) -> "Chunk":
        names = list(names)
        length = len(columns[names[0]]) if names else 0
        return cls(names, columns, length)

    def to_rows(self) -> list[dict]:
        """Materialize as fresh row dicts (column order preserved).

        Built one column at a time — a one-key dict per row from the first,
        then each further column stored into every row — which gives the keys,
        key order and value objects of ``dict(zip(names, values))`` per row at
        a fraction of its cost.  This serves every in-process SELECT and every
        response the wire server sends.
        """
        if not self.names:
            return []
        first, *rest = self.names
        rows = [{first: value} for value in self.columns[first]]
        for name in rest:
            for row, value in zip(rows, self.columns[name]):
                row[name] = value
        return rows

    def resolve(self, name: str) -> str | None:
        """Case-insensitive column lookup; None when the chunk lacks it."""
        if name in self.columns:
            return name
        wanted = name.lower()
        return next((key for key in self.names if key.lower() == wanted), None)

    def values(self, resolved: str) -> list:
        """The value list for a column name returned by :meth:`resolve`."""
        return self.columns[resolved]

    def numeric(self, resolved: str) -> np.ndarray | None:
        """A ``float64`` view of the column, or None when it holds values the
        conversion could change (None, bools, strings, huge ints)."""
        if resolved in self._numeric_cache:
            return self._numeric_cache[resolved]
        values = self.columns[resolved]
        view: np.ndarray | None = None
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
        kept = {name: list(compress(column, mask)) for name, column in self.columns.items()}
        return Chunk.columnar(self.names, kept)

    def take(self, order: Sequence[int]) -> "Chunk":
        """A new chunk holding rows ``order[0], order[1], ...`` of this one."""
        return Chunk.columnar(
            self.names,
            {name: [column[i] for i in order] for name, column in self.columns.items()},
        )

    def head(self, count: int) -> "Chunk":
        """A new chunk with only the first ``count`` rows."""
        if count >= self.length:
            return self
        return Chunk.columnar(
            self.names, {name: column[:count] for name, column in self.columns.items()}
        )


def _rows_to_chunk(names: Sequence[str], rows) -> Chunk:
    """Schema-shaped row mappings as one columnar chunk."""
    rows = list(rows)
    return Chunk.columnar(names, {name: [row[name] for row in rows] for name in names})


@dataclass
class NodeStats:
    """Per-node execution statistics collected by a :class:`PlanRuntime`."""

    rows: int = 0
    seconds: float = 0.0  # this node's own simulated seconds (children excluded)
    inclusive: float = 0.0  # including children


class PlanRuntime:
    """Everything one execution of a plan needs: parameters, session context,
    and the cost probe that attributes simulated seconds to nodes — read by
    the leaves and joins only (:meth:`PlanNode.execute`).

    ``context`` is the per-connection session registry threaded through from
    :class:`repro.connection.Connection`; served-view nodes use it to read on
    that connection's monotonic read-your-writes session.
    """

    def __init__(self, database, parameters, context, cost_probe) -> None:
        self.database = database
        self.parameters = list(parameters or [])
        self.context = context
        #: ``cost()``: current simulated seconds across every ledger this plan touches.
        self.cost = cost_probe
        self.node_stats: dict[int, NodeStats] = {}
        #: Join probe keys, by ``id`` of the probe-side lookup node they drive.
        self.probe_keys: dict[int, list] = {}

    def stats_of(self, node: "PlanNode") -> NodeStats:
        return self.node_stats.get(id(node)) or NodeStats()


class PlanNode:
    """Base class: children, cost annotations, measured execution."""

    #: The WHERE conjuncts this node answers exactly: the planner leaves them
    #: out of the residual ``Filter`` above it.
    answered: tuple[Predicate, ...] = ()

    def __init__(self, children=(), estimated_seconds: float | None = None, detail: str = ""):
        self.children: tuple[PlanNode, ...] = tuple(children)
        self.estimated_seconds = estimated_seconds
        self.detail = detail

    # -- execution -----------------------------------------------------------------------

    def execute(self, runtime: PlanRuntime) -> Chunk:
        """Run this node (and its children), attributing simulated seconds.

        The one measured entry point: it records the node's stats.  A leaf
        or a join reads the cost probe before and after it runs.  A node with
        one child touches no storage of its own and nothing charges between
        its start and its child's, or between its child's end and its own,
        so it takes its child's ``inclusive`` and ``0.0`` seconds of its own
        — bit for bit what its own pair of readings would give — without
        reading the probe.
        """
        if len(self.children) == 1:
            chunk = self._produce(runtime)
            inclusive = runtime.stats_of(self.children[0]).inclusive
            runtime.node_stats[id(self)] = NodeStats(chunk.length, 0.0, inclusive)
            return chunk
        start = runtime.cost()
        chunk = self._produce(runtime)
        inclusive = runtime.cost() - start
        children_inclusive = sum(
            runtime.stats_of(child).inclusive for child in self.children
        )
        runtime.node_stats[id(self)] = NodeStats(
            rows=chunk.length, seconds=inclusive - children_inclusive, inclusive=inclusive
        )
        return chunk

    def _produce(self, runtime: PlanRuntime) -> Chunk:  # pragma: no cover - abstract
        """This node's output for one execution, as one chunk."""
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


def _scan_chunk(table) -> Chunk:
    """The whole heap of ``table``, in physical order, as one columnar chunk."""
    return _rows_to_chunk(table.schema.column_names(), (row for _, row in table.heap.scan()))


class SeqScan(PlanNode):
    """Sequential heap scan of a base table."""

    def __init__(self, table, **kwargs):
        super().__init__(**kwargs)
        self.table = table

    def label(self) -> str:
        return f"SeqScan({self.table.name})"

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        return _scan_chunk(self.table)


class IndexRange(PlanNode):
    """Primary-key index access; the point form is the degenerate ``[k, k]`` range."""

    def __init__(self, table, predicate: Predicate, **kwargs):
        super().__init__(**kwargs)
        self.table = table
        self.predicate = predicate

    def label(self) -> str:
        return f"IndexRange({self.table.name}.{self.predicate.render()})"

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        row = self.table.try_get_by_key(self.predicate.bind(runtime.parameters))
        return _rows_to_chunk(self.table.schema.column_names(), [row] if row is not None else [])


class SecondaryIndexRange(PlanNode):
    """B+-tree probe over a ``CREATE INDEX`` key, plus a heap fetch per match
    (unless the scan is *covering*).

    Of the ``predicates`` it is given, the node answers those the
    leftmost-prefix rule (:func:`leftmost_prefix`) assigns to its key — its
    own :attr:`predicates`: the values of the pinned leading key columns plus
    at most one range over the next one, which the index turns into a
    contiguous tuple-key range at execution.  A one-column index is the case
    with no prefix.

    With ``order`` set — ``(column, "asc" | "desc")`` — the node is
    *index-ordered*: rows come back sorted by that key column (the leaf chain
    is walked forward for ``asc`` and backwards along the ``prev_leaf`` chain
    for ``desc``, so **both** directions early-exit) and the planner elided
    the ``Sort``/``TopK`` above; ``limit`` then caps how many entries are
    walked, which is the fused top-k win.

    With ``covering`` set the SELECT's column set is a subset of the index
    key, so rows are rebuilt from the B+-tree keys themselves and the
    per-match heap fetch is skipped entirely — the index-only scan.

    Execution re-resolves the index by name and falls back to a full heap
    scan — sorted when ordered — whenever the index answer could differ from
    scan semantics: the index was dropped (a cached plan raced the DDL), a
    bound binds to NULL (``col = NULL`` matches NULL rows under this
    dialect's ``compare_values``, but NULLs are never indexed), a bound is of
    a type the keys cannot be ordered against, or unindexed NULL rows could
    belong to the answer (an ordered read must place them; a probe that
    leaves a key column unconstrained may match them).  The residual
    ``Filter`` above re-checks every conjunct either way, so answers stay
    byte-identical to a scan.
    """

    def __init__(
        self,
        table,
        index_name: str,
        key_columns: Sequence[str],
        predicates,
        order: tuple[str, str] | None = None,
        limit: int | None = None,
        covering: bool = False,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.table = table
        self.index_name = index_name
        self.key_columns = tuple(key_columns)
        self.prefix = leftmost_prefix(self.key_columns, predicates)
        self.predicates = self.prefix.conjuncts
        self.order = order
        self.limit = limit
        self.covering = covering

    def label(self) -> str:
        parts = [_render_predicates(self.predicates) or "unbounded"]
        if self.order is not None:
            column, direction = self.order
            parts.append(f"order={column} {direction}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.covering:
            parts.append("covering")
        return f"SecondaryIndexRange({self.table.name}.{self.index_name}: {', '.join(parts)})"

    def _probe(self, parameters) -> tuple[tuple, KeyRange] | None:
        """This execution's pinned key values and the range over the next key
        column — None when a bound binds to NULL (scan fallback).

        Each pinned column's conjuncts tighten to one point, its value in the
        prefix; conjuncts that admit no single point (``a = 1 AND a = 2``,
        ``a = 1 AND a > 1``) become the range instead, an empty one, and end
        the probe there.
        """
        equalities: list[object] = []
        for conjuncts in (*self.prefix.pinned, self.prefix.range):
            key_range = _key_range(conjuncts, parameters)
            if key_range is None:
                return None
            low = key_range.low
            point = key_range.include_low and key_range.include_high and low == key_range.high
            if low is None or not point:
                return tuple(equalities), key_range
            equalities.append(low)
        return tuple(equalities), KeyRange()

    def _matching_entries(self, index, parameters):
        """The probe's index entries — rids, or ``(key, rid)`` when covering.

        Returns None when the index cannot answer and the caller must fall
        back to a heap scan.  Applies the fused ``limit`` by early-exiting
        the leaf walk in either direction.
        """
        probe = self._probe(parameters)
        if probe is None:
            return None
        equalities, key_range = probe
        scan = index.scan(
            key_range,
            equalities=equalities,
            reverse=self.order is not None and self.order[1] == "desc",
            with_keys=self.covering,
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
        unconstrained = self.key_columns[len(self.prefix.pinned) + bool(self.prefix.range) :]
        if (self.order is not None or unconstrained) and not index.covers_all_rows(
            self.table.row_count()
        ):
            # Some live rows are unindexed (NULL/NaN in a key column): index
            # order would misplace (drop) rows the ordering must place, and a
            # row NULL in a key column no conjunct constrains may still match.
            return None
        try:
            return self._matching_entries(index, runtime.parameters)
        except TypeError:
            # A bound the key type cannot be ordered against: answer from the
            # scan, whose residual Filter raises the documented error.
            return None

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        entries = self._resolve_entries(runtime)
        if entries is None:
            chunk = _scan_chunk(self.table)
            if self.order is None:
                return chunk
            column, direction = self.order
            return _sorted_chunk(chunk, column, direction == "desc")
        if self.covering:
            # Rebuild the (partial) rows from the tree keys — no heap access.
            rows = (dict(zip(self.key_columns, key)) for key, _ in entries)
            return _rows_to_chunk(self.key_columns, rows)
        return _rows_to_chunk(
            self.table.schema.column_names(),
            (self.table.heap.read(rid, sequential=False) for rid in entries),
        )


class SystemTableScan(PlanNode):
    """Materialization of a virtual ``system.*`` observability table.

    The producer is a callable returning row mappings, whose columns are the
    first row's keys; unlike every other access path it reads process state
    rather than stored data, so its estimated cost is pinned to zero —
    observability reads must never perturb the cost model they report on.
    """

    def __init__(self, name: str, producer, **kwargs):
        kwargs.setdefault("estimated_seconds", 0.0)
        super().__init__(**kwargs)
        self.name = name
        self.producer = producer

    def label(self) -> str:
        return f"SystemTableScan({self.name})"

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        rows = list(self.producer())
        try:
            return _rows_to_chunk(list(rows[0]) if rows else [], rows)
        except KeyError as missing:
            raise SQLExecutionError(
                f"the producer's rows do not all carry column {missing.args[0]!r}"
            ) from None


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

    def _chunk(self, ids: list, labels: list) -> Chunk:
        """The view's ``(key, class)`` columns for ``ids`` and their binary labels."""
        shown = {label: self.view.from_binary_label(label) for label in set(labels)}
        return self._columns(ids, [shown[label] for label in labels])

    def _columns(self, ids: list, classes: list) -> Chunk:
        """The view's ``(key, class)`` columns: ``ids`` and the classes shown for them."""
        key_column = self.view.definition.view_key
        return Chunk.columnar([key_column, "class"], {key_column: ids, "class": classes})


class _ViewClassNode(_ViewNode):
    """A view read bound by ``class = x``, which it answers exactly: every row
    shows the one class it reads, so the ``=`` of :func:`compare_values` a
    ``Filter`` would apply per row is checked once per statement instead —
    after the read, which thus charges what it did under that ``Filter``."""

    def __init__(self, view, class_predicate: Predicate, **kwargs):
        super().__init__(view, **kwargs)
        self.class_predicate = class_predicate
        self.answered = (class_predicate,)

    def _binary_class(self, value: object) -> int | None:
        """Map a user-facing class literal to {-1, +1}; None when unmappable."""
        try:
            return self.view.to_binary_label(value)
        except ConfigurationError:
            return None

    def _class_chunk(self, members, label: int, bound: object) -> Chunk:
        """``label``'s members as ``(key, class)`` columns; no rows when the
        class they show does not equal ``bound``."""
        shown = self.view.from_binary_label(label)
        if not compare_values(shown, "=", bound):
            return self._columns([], [])
        return self._columns(list(members), [shown] * len(members))


class ViewScan(_ViewNode):
    """Full materialization of a classification view (one coherent epoch when served)."""

    names = ("ViewScan", "ServedScatterGather")

    def label(self) -> str:
        return self._label(", contents" if self.served else "")

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        contents = self.view.reader(runtime.context).contents()
        return self._chunk(list(contents), list(contents.values()))


class ViewPointRead(_ViewNode):
    """Single Entity read; planned against a live server it goes through the
    request batcher, session-consistent, and prints as ``ServedPointRead``.

    A keyed read answers its ``key = k`` exactly: it shows the bound key
    itself on the one row it finds, and checks once, after the read (which
    thus charges what it did under a ``Filter``), that the key equals
    itself, as no key equals a NaN.

    With ``predicate=None`` the node is a *probe-side lookup* for
    :class:`HashJoin`: it has no key of its own and reads the probe keys its
    join left in :attr:`PlanRuntime.probe_keys` as one batch (one read batcher
    burst served, one ``read_many`` statement not) — each spelled as the view's
    key column stores it (``key_type``, :func:`typed_bound`), as a bound
    predicate's is.
    """

    names = ("ViewPointRead", "ServedPointRead")

    def __init__(self, view, predicate: Predicate | None, key_type=None, **kwargs):
        super().__init__(view, **kwargs)
        self.predicate = predicate
        self.is_probe_lookup = predicate is None
        self.key_type = key_type
        if predicate is not None:
            self.answered = (predicate,)

    def label(self) -> str:
        return self._label(", batch" if self.is_probe_lookup else f".{self.predicate.render()}")

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        reader = self.view.reader(runtime.context)
        if self.is_probe_lookup:
            keys = runtime.probe_keys.get(id(self))
            if keys is None:  # only a HashJoin may drive this node
                raise SQLExecutionError(
                    "a probe-side ViewPointRead executes only through its join"
                )
            found = reader.labels_of([typed_bound(key, self.key_type) for key in keys])
            return self._chunk(list(found), list(found.values()))
        key = self.predicate.bind(runtime.parameters)
        try:
            label = reader.label_of(key)
        except KeyNotFoundError:
            return self._columns([], [])
        if not compare_values(key, "=", key):
            return self._columns([], [])
        return self._chunk([key], [label])


class ViewMembers(_ViewClassNode):
    """All Members read; ``ServedScatterGather`` across the shards when served."""

    names = ("ViewMembers", "ServedScatterGather")

    def label(self) -> str:
        return self._label(f", {self.class_predicate.render()}")

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        bound = self.class_predicate.bind(runtime.parameters)
        label = self._binary_class(bound)
        if label is None:
            return self._columns([], [])
        members = self.view.reader(runtime.context).all_members(label)
        return self._class_chunk(members, label, bound)


class ViewRangeRead(_ViewClassNode):
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
        super().__init__(view, class_predicate, **kwargs)
        self.range_predicates = tuple(range_predicates)

    def label(self) -> str:
        return self._label(
            f", {_render_predicates((self.class_predicate, *self.range_predicates))}"
        )

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        bound = self.class_predicate.bind(runtime.parameters)
        label = self._binary_class(bound)
        if label is None:
            return self._columns([], [])
        try:
            key_range = _key_range(self.range_predicates, runtime.parameters)
            if key_range is None:
                return self._columns([], [])
            members = self.view.reader(runtime.context).range_scan(label, key_range)
        except TypeError as exc:
            raise SQLExecutionError(
                f"the range bounds on {self.view.definition.view_key!r} cannot be "
                f"ordered against the keys of view {self.view.name!r}: {exc}"
            ) from exc
        return self._class_chunk(members, label, bound)


# ---------------------------------------------------------------------------
# Interior operators
# ---------------------------------------------------------------------------


class Filter(PlanNode):
    """Residual predicate re-check above an access path."""

    def __init__(self, child: PlanNode, predicates, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.predicates = tuple(predicates)

    def label(self) -> str:
        return f"Filter({_render_predicates(self.predicates)})"

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        """Evaluate the conjuncts over whole columns; NumPy masks on numeric
        columns (via :func:`repro.linalg.kernels.compare`), per-value
        :func:`compare_values` — the scalar definition — otherwise."""
        chunk = self.children[0].execute(runtime)
        if not chunk.length:
            return chunk
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


def _sorted_chunk(chunk: Chunk, column: str, descending: bool, limit: int | None = None) -> Chunk:
    """The first ``limit`` rows of ``chunk`` ordered by ``column``.

    A NaN-free numeric sort column is ordered by one stable ``np.argsort``
    (negated for descending — stability then preserves the original order of
    equal keys, exactly like a stable reverse-order sort).  Anything else
    takes the Python sort under :func:`_sort_key`: NULLs last ascending,
    NULLs first descending, ties in arrival order either way.
    """
    if chunk.length == 0:
        return chunk
    resolved = chunk.resolve(column)
    if resolved is None:
        raise SQLExecutionError(f"unknown ORDER BY column {column!r}")
    numeric = chunk.numeric(resolved)
    if numeric is not None and not np.isnan(numeric).any():
        order = np.argsort(-numeric if descending else numeric, kind="stable").tolist()
    else:
        keys = [_sort_key(value) for value in chunk.values(resolved)]
        order = sorted(range(chunk.length), key=keys.__getitem__, reverse=descending)
    return chunk.take(order[:limit])


class Sort(PlanNode):
    """Full sort for ORDER BY without LIMIT."""

    def __init__(self, child: PlanNode, column: str, descending: bool, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.column = column
        self.descending = descending

    def label(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"Sort(by={self.column} {direction})"

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        return _sorted_chunk(self.children[0].execute(runtime), self.column, self.descending)


class TopK(PlanNode):
    """Ranked read: ORDER BY + LIMIT.

    With a child, a stable sort-and-slice over the child's rows.  Without one
    (``view`` set), the *fused* top-k answered by the view's reader — the
    maintainer's heap, or per-shard heaps merged across the shards by the
    server and driven through the session — it consumes no child rows.
    """

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

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        if self.view is None:
            child = self.children[0].execute(runtime)
            return _sorted_chunk(child, self.column, self.descending, limit=self.k)
        key_column = self.view.definition.view_key
        ranked = self.view.reader(runtime.context).top_k(self.k, label=1)
        columns = {
            key_column: [entity_id for entity_id, _ in ranked],
            "class": [self.view.from_binary_label(1)] * len(ranked),
            "margin": [margin for _, margin in ranked],
        }
        return Chunk.columnar([key_column, "class", "margin"], columns)


class Limit(PlanNode):
    """LIMIT without ORDER BY."""

    def __init__(self, child: PlanNode, count: int, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.count = count

    def label(self) -> str:
        return f"Limit({self.count})"

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        return self.children[0].execute(runtime).head(self.count)


class Project(PlanNode):
    """Column projection; ``lookups`` are the row keys resolved at plan time."""

    def __init__(self, child: PlanNode, lookups, **kwargs):
        super().__init__(children=(child,), **kwargs)
        self.lookups = tuple(lookups)

    def label(self) -> str:
        return f"Project({', '.join(self.lookups)})"

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        chunk = self.children[0].execute(runtime)
        if not chunk.length:
            return chunk
        columns: dict[str, list] = {}
        for wanted in self.lookups:
            resolved = chunk.resolve(wanted)
            if resolved is None:
                raise SQLExecutionError(f"unknown column {wanted!r} in SELECT list")
            columns[resolved] = chunk.values(resolved)
        return Chunk.columnar(list(columns), columns)


class Aggregate(PlanNode):
    """``COUNT(*)`` over the child's rows."""

    def __init__(self, child: PlanNode, **kwargs):
        super().__init__(children=(child,), **kwargs)

    def label(self) -> str:
        return "Aggregate(count)"

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        # Counting never materializes rows: the child's length is the count.
        return Chunk.columnar(["count"], {"count": [self.children[0].execute(runtime).length]})


class HashJoin(PlanNode):
    """Inner equi-join: build a hash table on the right side, probe with the left.

    When the right child is a probe-side :class:`ViewPointRead` (a view
    joined on its key with no pushable predicate, served or not), the left
    side runs first and its join keys drive one batched lookup instead of
    materializing the whole view.
    """

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

    def _produce(self, runtime: PlanRuntime) -> Chunk:
        left_node, right_node = self.children
        left = left_node.execute(runtime)
        left_keys = self._key_values(left, self.left_key) if left.length else []
        if getattr(right_node, "is_probe_lookup", False):
            runtime.probe_keys[id(right_node)] = list(dict.fromkeys(left_keys))
        right = right_node.execute(runtime)
        if not left.length or not right.length:
            return Chunk.columnar([], {})
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
        return Chunk.columnar(list(columns), columns)
