"""The query planner: Select AST -> logical/physical plan tree.

This is the seam between the SQL front-end and execution, and the one module
that decides how a statement finds its rows — a write's too: ``plan_locate``
plans an ``UPDATE`` / ``DELETE`` as ``SELECT <pk> FROM t WHERE <its conjuncts>``
(built from the AST), so everything below holds for DML.  ``plan_select``
resolves every name against the catalog, validates column references at *plan
time* (carrying the parser's machine-readable ``position``/``token``
diagnostics into :class:`~repro.exceptions.SQLPlanningError`), chooses an
access path per source, pushes single-source predicates below joins, and
annotates every node with a deterministic cost-model estimate.  The executor
runs the returned :class:`SelectPlan`; ``EXPLAIN`` prints it; the connection
layer caches it per SQL text and re-binds ``?`` parameters without re-planning.

Every SELECT takes one path: a single-table read is a join of one source.  One
scope over the statement's one or two sources resolves every column reference
(JOIN ON, WHERE, ORDER BY, the SELECT list) and refuses the same way for one
source as for two; one source planner builds each access node and its
residual ``Filter`` — the FROM side of a single-source read may also answer
the ORDER BY and LIMIT itself — and a join adds only its ON keys, the
probe-lookup rule and the ``HashJoin``; one wrapper orders, limits, counts and
projects either shape.

``COUNT(*)`` counts every row the WHERE and JOIN admit: its rows are planned
as if the statement had no ORDER BY and no LIMIT (no ``Sort``, ``TopK``,
index-ordered walk or fused top-k under the ``Aggregate``), and its LIMIT is a
``Limit`` above the ``Aggregate`` — over the one row it answers, so ``LIMIT
0`` answers none.  Its ORDER BY is resolved like any other, so it refuses what
it refuses elsewhere, and orders nothing.

Access-path choice per source:

* base table — primary-key equality takes an :class:`IndexRange` point
  lookup; otherwise every ``CREATE INDEX`` secondary index whose key
  carries servable conjuncts (``=``/``<``/``<=``/``>``/``>=``) is costed as a
  :class:`SecondaryIndexRange` (B+-tree probe + one heap fetch per estimated
  match, selectivity from the index's own statistics) against the
  :class:`SeqScan`, and the cheapest estimate wins — on the FROM side and the
  JOIN side alike.  Every index keys on the tuple of its columns and follows
  the one leftmost-prefix rule (:func:`~repro.db.sql.plan.leftmost_prefix`):
  equality conjuncts pin leading key columns and at most one range applies to
  the next column.  When the query's referenced columns (SELECT list, WHERE,
  ORDER BY) all sit inside an index's key, the probe becomes a *covering*
  index-only scan that skips every heap fetch and is costed without the
  random-page term.  ``ORDER BY col LIMIT k`` over an indexed column
  additionally considers the *index-ordered* form (walk the leaf chain in
  either direction — the ``prev_leaf`` back-chain makes DESC early-exit too —
  fetch at most k rows, no ``Sort``/``TopK``) against scan-and-sort;
* classification view — a key equality takes a :class:`ViewPointRead`,
  ``class = x`` a :class:`ViewMembers`, ``class = x`` plus a key range the
  pushed-down :class:`ViewRangeRead`, anything else a :class:`ViewScan`, and
  ``ORDER BY margin DESC LIMIT k`` fuses into the view's own top-k.  The
  planner asks the view for its reader (``view.reader()``,
  :mod:`repro.core.reads`) once per access node and takes from it whether a
  live server answers (the ``Served*`` names ``EXPLAIN`` prints: batcher point
  read, shard scatter/gather, one coherent epoch), the fan-out, and the
  estimate — a reader prices its own reads, so nothing here looks inside a
  view.

Every WHERE conjunct is kept as a residual :class:`Filter` re-check above the
access node — the pushdown decides what the storage layer *scans*, the
re-check keeps answers byte-identical to the post-filter semantics — except
the ones the node answers exactly (:attr:`~repro.db.sql.plan.PlanNode.answered`):
a view read bound by ``class = x`` (``ViewMembers``, ``ViewRangeRead``) shows
one class on every row and checks once per statement that it equals the
bound, and a keyed ``ViewPointRead`` shows its bound key on the one row it
finds; each leaves its conjunct out of the ``Filter``, which goes when nothing
else is left in it.  A second key conjunct, a view's key range and a base
table's index keys stay re-checked.  Each predicate carries its column's
declared type where the catalog knows it (a view's key column: its entities
table's), so a bound that equals a stored value is bound *as* that value
(:func:`~repro.db.sql.plan.typed_bound`).
"""

from __future__ import annotations

import weakref
from dataclasses import replace

from repro.db.buffer_pool import ledger_probe
from repro.db.sql.ast import PLACEHOLDER, Comparison, Delete, Select, Update
from repro.db.sql.plan import (
    Aggregate,
    Filter,
    HashJoin,
    IndexRange,
    Limit,
    PlanNode,
    PlanRuntime,
    Predicate,
    Project,
    SecondaryIndexRange,
    SeqScan,
    SystemTableScan,
    Sort,
    TopK,
    ViewMembers,
    ViewPointRead,
    ViewRangeRead,
    ViewScan,
    leftmost_prefix,
)
from repro.db.types import DataType, KeyRange
from repro.exceptions import SQLExecutionError, SQLPlanningError

__all__ = ["Planner", "SelectPlan"]

_RANGE_OPERATORS = ("<", "<=", ">", ">=")
#: ``EXPLAIN`` detail per view read: (unserved, served over ``{n}`` shards).
_VIEW_READ_DETAILS = {
    "label_of": (
        "direct maintainer read_single (view is not served)",
        "batched read on the owning shard of {n}; statement overhead amortized per "
        "coalesced batch",
    ),
    "all_members": (
        "direct maintainer All Members read (view is not served)",
        "scatter/gather All Members across {n} shards",
    ),
    "range_scan": (
        "maintainer read_range (view is not served)",
        "pushed-down read_range across {n} shards; classifies only in-range candidates",
    ),
    "contents": (
        "materialize the view through the direct maintainer",
        "materialize one coherent epoch: one scan per shard across {n} shards",
    ),
    "labels_of": (
        "one batched point read for the join's probe keys (view is not served)",
        "batched point reads for the join's probe keys through the read batcher",
    ),
    "top_k": (
        "direct maintainer top-k heap over one scored scan (view is not served)",
        "per-shard top-k heaps + n-way merge across {n} shards",
    ),
}


def _covering_flag(covering: bool) -> str:
    """The suffix an index-only (covering) access node's EXPLAIN detail carries."""
    return "; covering=true" if covering else ""


class SelectPlan:
    """A planned SELECT: the node tree plus what one execution needs.

    The plan is immutable but for its probe memo, and parameter-agnostic —
    ``run`` binds ``?`` placeholders positionally, so a cached plan is re-run
    without re-parsing or re-planning.  ``explain_rows`` renders the tree
    (optionally with the actuals a finished :class:`PlanRuntime` collected).
    """

    def __init__(self, root: PlanNode, select: Select, views=(), catalog_version: int = 0) -> None:
        self.root = root
        self.select = select
        self._views = tuple(views)
        #: The catalog version this plan was built against; the executor
        #: re-plans when the namespace changed (a dropped/replaced table or
        #: view must never be read through a stale cached plan).
        self.catalog_version = catalog_version
        estimates = [n.estimated_seconds for _, n in root.walk() if n.estimated_seconds is not None]
        #: The statement's estimate: the sum of its nodes' own (None: no node has one).
        self.estimated_seconds = sum(estimates) if estimates else None
        #: ``(readers, probe)``: the cost probe, kept while every view's reader
        #: is; weak references, so a stopped server is not kept alive by a plan.
        self._probe: tuple[list, object] | None = None

    def run(self, database, parameters, context) -> tuple[list[dict], PlanRuntime]:
        """Execute the plan; rows are materialized here, once, from the root's chunk."""
        runtime = PlanRuntime(database, parameters, context, self.cost_probe(database))
        return self.root.execute(runtime).to_rows(), runtime

    def ledger_groups(self, database) -> list:
        """The ledgers this plan's sources charge, one group per source: the
        database's, then each view reader's ``ledgers()``."""
        return [(database.stats,), *[view.reader().ledgers() for view in self._views]]

    def cost_probe(self, database):
        """A probe of :meth:`ledger_groups`, counting a ledger two sources share
        once (:func:`~repro.db.buffer_pool.ledger_probe`).  Every execution
        asks each view for its reader, since ``SERVE VIEW`` moves no catalog
        version, and builds the probe again when one changed."""
        readers = [weakref.ref(view.reader()) for view in self._views]
        memo = self._probe
        if memo is None or memo[0] != readers:
            memo = self._probe = (readers, ledger_probe(*self.ledger_groups(database)))
        return memo[1]

    def explain_rows(self, runtime: PlanRuntime | None = None, io_delta=None) -> list[dict]:
        """One output row per plan node, pre-order, indented by depth.

        Under ANALYZE the executor also passes ``io_delta`` — the statement's
        buffer-pool :class:`~repro.db.buffer_pool.IOStatistics` delta — whose
        page totals are reported on the root row (``pages_read`` /
        ``pages_written``; None on child rows, the counters are per statement).
        """
        rows: list[dict] = []
        for depth, node in self.root.walk():
            row: dict[str, object] = {
                "node": "  " * depth + node.label(),
                "estimated_seconds": node.estimated_seconds,
            }
            if runtime is not None:
                stats = runtime.stats_of(node)
                row["actual_seconds"] = stats.seconds
                row["rows"] = stats.rows
            if io_delta is not None:
                root_row = not rows
                row["pages_read"] = io_delta.page_reads if root_row else None
                row["pages_written"] = io_delta.page_writes if root_row else None
            row["detail"] = node.detail
            rows.append(row)
        return rows


class _Source:
    """One resolved FROM source: catalog object + statically known columns."""

    def __init__(self, name: str, kind: str, obj) -> None:
        self.name = name
        self.kind = kind  # "table" | "classification_view" | "system_table"
        self.obj = obj

    def columns(self) -> list[str] | None:
        """Statically known column names (None for a ``system.*`` table, whose
        columns are its producer's)."""
        if self.kind == "table":
            return list(self.obj.schema.column_names())
        if self.kind == "classification_view":
            return [self.obj.definition.view_key, "class"]
        return None

    def has_column(self, column: str) -> bool:
        known = self.columns()
        if known is None:
            return True  # opaque: defer to runtime
        return column.lower() in {name.lower() for name in known}


class _Scope:
    """The statement's sources — FROM's, then JOIN's — and what a column
    reference names in them.

    Every reference of a statement (JOIN ON, WHERE, ORDER BY, the SELECT list)
    resolves here, so one source and two refuse the same way: an unknown
    qualifier, an unknown or ambiguous column, and a view's ``margin`` outside
    the fused top-k read.  In a join, the right side's columns that collide
    with the left's reach the rows as ``<source>.<column>`` (``renames``).
    """

    def __init__(self, sources: list[_Source]) -> None:
        self.sources = sources
        self.renames: dict[str, str] = {}
        if len(sources) == 2:
            left, right = sources
            taken = {name.lower() for name in left.columns()}
            self.renames = {
                name.lower(): f"{right.name}.{name}"
                for name in right.columns()
                if name.lower() in taken
            }

    def resolve(
        self, reference: str, position, clause: str, margin_ok: bool = False
    ) -> tuple[int, str]:
        """``(source index, bare column)`` of an optionally qualified reference."""
        qualifier, _, bare = reference.rpartition(".")
        sources = self.sources
        if qualifier:
            for index, source in enumerate(sources):
                if source.name.lower() == qualifier.lower():
                    break
            else:
                origin = f" (FROM {sources[0].name})" if len(sources) == 1 else ""
                raise SQLPlanningError(
                    f"unknown table qualifier {qualifier!r} in {reference!r}{origin}",
                    position=position,
                    token=reference,
                )
        elif len(sources) == 1:
            index = 0
        else:
            left, right = sources
            having = [left.has_column(bare), right.has_column(bare)]
            if all(having):
                raise SQLPlanningError(
                    f"ambiguous column {bare!r}: qualify it with {left.name!r} or {right.name!r}",
                    position=position,
                    token=reference,
                )
            if any(having):
                return having.index(True), bare
            margin = [_is_margin(left, bare), _is_margin(right, bare)]
            if not any(margin):
                raise SQLPlanningError(
                    f"unknown column {bare!r} in {clause} (neither {left.name!r} "
                    f"nor {right.name!r} has it)",
                    position=position,
                    token=reference,
                )
            index = margin.index(True)
        source = sources[index]
        if source.has_column(bare) or (margin_ok and _is_margin(source, bare)):
            return index, bare
        if _is_margin(source, bare):
            raise SQLPlanningError(
                f"column 'margin' of view {source.name!r} is only available on "
                "ORDER BY margin DESC LIMIT k reads",
                position=position,
                token=bare,
            )
        raise SQLPlanningError(
            f"unknown column {bare!r} in {clause} (source {source.name!r} "
            f"has columns {', '.join(source.columns())})",
            position=position,
            token=bare,
        )

    def lookup(self, reference: str, position, clause: str, margin_ok: bool = False) -> str:
        """The name the plan's rows carry a reference's column under."""
        index, bare = self.resolve(reference, position, clause, margin_ok)
        return self.renames.get(bare.lower(), bare) if index else bare


def _is_margin(source: _Source, column: str) -> bool:
    """Whether ``column`` is a view's ``margin``, readable only by its fused top-k."""
    return source.kind == "classification_view" and column.lower() == "margin"


class Planner:
    """Builds :class:`SelectPlan` trees against one database's catalog.

    ``use_index_paths=False`` disables every index access path on base tables
    (primary-key ``IndexRange``, ``SecondaryIndexRange``, index-ordered
    reads): everything becomes a ``SeqScan`` under the residual ``Filter``.
    That is the ground-truth reference executor the differential SQL oracle
    compares index answers against.  ``use_covering_scans=False`` keeps the
    index paths but disables the index-only (covering) variant, forcing the
    heap-fetching probe — the baseline the covering benchmark compares
    against.
    """

    def __init__(
        self, database, use_index_paths: bool = True, use_covering_scans: bool = True
    ) -> None:
        self._database = database
        self._use_index_paths = use_index_paths
        self._use_covering_scans = use_covering_scans

    # -- entry point ---------------------------------------------------------------------

    def plan_select(self, select: Select) -> SelectPlan:
        """One path for every SELECT: a single-table read is a join of one.

        References resolve in statement order — JOIN ON, WHERE, ORDER BY, the
        SELECT list — so the first bad one is the one refused; then each
        source gets its access node and residual ``Filter``, a join joins
        them, and one wrapper orders, limits and projects — or counts, and
        then limits the count.
        """
        join = select.join
        sources = [self._resolve_source(select.table, select.table_position)]
        if join is not None:
            sources.append(self._resolve_source(join.table, join.table_position))
            for source, position in zip(sources, (select.table_position, join.table_position)):
                if source.kind not in ("table", "classification_view"):
                    raise SQLPlanningError(
                        f"joins support base tables and classification views; "
                        f"{source.name!r} is a {source.kind.replace('_', ' ')}",
                        position=position,
                        token=source.name,
                    )
        scope = _Scope(sources)
        keys = self._join_keys(join, scope) if join is not None else None

        counter = [0]
        predicates: list[list[Predicate]] = [[] for _ in sources]
        for comparison in select.where:
            index, bare = scope.resolve(comparison.column, comparison.position, "WHERE clause")
            predicates[index].append(
                self._build_predicate(comparison, bare, counter, sources[index])
            )
        topk = join is None and self._is_margin_topk(select, sources[0])
        order = None
        if select.order_by is not None:
            order = scope.lookup(
                select.order_by, select.order_by_position, "ORDER BY", margin_ok=topk
            )
        output = None
        if not select.count and select.columns != ("*",):
            positions = select.column_positions or (None,) * len(select.columns)
            output = [
                scope.lookup(column, position, "SELECT list", margin_ok=topk)
                for column, position in zip(select.columns, positions)
            ]

        rows = select  # what the rows under the output are planned for
        if select.count:  # counts every admitted row: no ORDER BY or LIMIT below it
            rows, order = replace(select, order_by=None, limit=None), None
        if join is None:
            node, ordered = self._plan_source(sources[0], predicates[0], rows, order, output)
        else:
            node, ordered = self._plan_join(scope, keys, predicates), False
        if not ordered:
            node = self._wrap_order_limit(node, rows, order)
        node = self._wrap_output(node, select, output)
        views = [source.obj for source in sources if source.kind == "classification_view"]
        return SelectPlan(node, select, views, catalog_version=self._database.catalog.version)

    def plan_locate(self, statement: Update | Delete) -> SelectPlan:
        """Where a write lands: the plan of ``SELECT <pk> FROM t WHERE <the
        statement's own conjuncts>`` — a write finds its rows as a read would."""
        table = self._database.catalog.table(statement.table)
        if table.schema.primary_key is None:
            verb = type(statement).__name__.upper()
            raise SQLExecutionError(f"{verb} requires a primary key on {statement.table!r}")
        return self.plan_select(
            Select(statement.table, (table.schema.primary_key,), statement.where)
        )

    # -- name resolution -----------------------------------------------------------------

    def _resolve_source(self, name: str, position: int | None = None) -> _Source:
        kind = self._database.catalog.object_kind(name)
        if kind is None:
            raise SQLPlanningError(
                f"no table or view named {name!r}", position=position, token=name
            )
        if kind == "table":
            return _Source(name, kind, self._database.catalog.table(name))
        if kind == "classification_view":
            return _Source(name, kind, self._database.catalog.classification_view(name))
        return _Source(name, kind, self._database.catalog.system_table(name))

    # -- predicates ----------------------------------------------------------------------

    def _view_key_type(self, view) -> DataType:
        """A view's key column is typed by its entities table's key column."""
        definition = view.definition
        entities = self._database.catalog.table(definition.entities_table)
        return entities.schema.column(definition.entities_key).data_type

    def _column_type(self, source: _Source, column: str) -> DataType | None:
        """The declared type of a source's column, when the catalog knows it."""
        if source.kind == "table":
            return source.obj.schema.column(column).data_type
        if source.kind == "classification_view":
            if column.lower() == source.obj.definition.view_key.lower():
                return self._view_key_type(source.obj)
        return None

    def _build_predicate(
        self, comparison: Comparison, column: str, counter: list[int], source: _Source
    ) -> Predicate:
        param_index = None
        if comparison.value is PLACEHOLDER:
            param_index = counter[0]
            counter[0] += 1
        return Predicate(
            column=column,
            operator=comparison.operator,
            value=comparison.value,
            param_index=param_index,
            data_type=self._column_type(source, column),
        )

    # -- one source: its access node and residual Filter --------------------------------

    def _plan_source(
        self,
        source: _Source,
        predicates: list[Predicate],
        select: Select | None = None,
        order: str | None = None,
        output: list[str] | None = None,
        probe_lookup: bool = False,
    ) -> tuple[PlanNode, bool]:
        """One source's access node under its residual ``Filter``, and whether
        the node already answers the statement's ORDER BY and LIMIT.

        Given the SELECT (the FROM side of a single-source read), a base table
        may take a covering probe or an index-ordered walk — its ``Limit``
        stays above the ``Filter``, as the fallback scan inside the node
        returns everything — and a view the fused top-k.  Without it the node
        is one side of a join: ``probe_lookup`` lets a predicate-free view
        read the probe side's join keys (see :meth:`_plan_view_access`).
        """
        ordered = False
        if source.kind == "system_table":
            node = SystemTableScan(
                source.name,
                source.obj,
                detail="virtual observability table; reads process state, costs nothing",
            )
        elif source.kind == "classification_view":
            ordered = select is not None and self._is_margin_topk(select, source)
            node = (
                self._fused_topk_node(select, source)
                if ordered
                else self._plan_view_access(source.obj, predicates, probe_lookup)
            )
        elif select is None:
            node = self._plan_table_access(source.obj, predicates)
        else:
            node, ordered = self._plan_table_read(
                source.obj, predicates, select, order, output
            )
        residual = [p for p in predicates if p not in node.answered]
        if residual:
            node = Filter(
                node,
                residual,
                estimated_seconds=0.0,
                detail="residual re-check of every WHERE conjunct",
            )
        if ordered and source.kind == "table":
            node = Limit(
                node,
                select.limit,
                estimated_seconds=0.0,
                detail="rows arrive index-ordered; Sort elided",
            )
        return node, ordered

    # -- ORDER BY / LIMIT / COUNT / projection wrapping ----------------------------------

    @staticmethod
    def _wrap_order_limit(node: PlanNode, select: Select, order: str | None) -> PlanNode:
        if order is None:
            if select.limit is not None:
                return Limit(node, select.limit, estimated_seconds=0.0)
            return node
        if select.limit is not None:
            rows = "joined rows" if select.join is not None else "child's rows"
            return TopK(
                select.limit,
                order,
                select.descending,
                child=node,
                estimated_seconds=0.0,
                detail=f"stable sort + slice of the {rows}",
            )
        return Sort(node, order, select.descending, estimated_seconds=0.0)

    @staticmethod
    def _wrap_output(node: PlanNode, select: Select, output: list[str] | None) -> PlanNode:
        if select.count:
            node = Aggregate(node, estimated_seconds=0.0)
            if select.limit is None:
                return node
            return Limit(node, select.limit, estimated_seconds=0.0)
        if output is None:
            return node
        return Project(node, output, estimated_seconds=0.0)

    # -- classification-view specifics ----------------------------------------------------

    @staticmethod
    def _is_margin_topk(select: Select, source: _Source) -> bool:
        """Whether this single-source read is a view's fused top-k — ``ORDER BY
        margin DESC LIMIT k`` with no WHERE; rejects near-misses loudly."""
        if not _is_margin(source, (select.order_by or "").rpartition(".")[2]):
            return False
        if select.limit is not None and not select.where:
            if select.descending:
                return True
            raise SQLPlanningError(
                "ORDER BY margin ASC is not a top-k read: top_k answers the "
                "highest margins only",
                position=select.order_by_position,
                token=select.order_by,
            )
        raise SQLPlanningError(
            "ORDER BY margin requires the exact shape "
            "ORDER BY margin DESC LIMIT k with no WHERE clause",
            position=select.order_by_position,
            token=select.order_by,
        )

    def _fused_topk_node(self, select: Select, source: _Source) -> TopK:
        annotations = self._view_read(source.obj.reader(), "top_k")
        return TopK(select.limit, "margin", True, view=source.obj, **annotations)

    # -- access-path planning -------------------------------------------------------------

    def _seq_scan_node(self, table) -> SeqScan:
        cost_model = self._database.cost_model
        return SeqScan(
            table,
            estimated_seconds=cost_model.statement_overhead
            + cost_model.scan_cost(table.page_count(), table.row_count()),
            detail=(
                f"sequential scan of {table.page_count()} pages / "
                f"{table.row_count()} tuples"
            ),
        )

    def _covers(self, index, needed) -> bool:
        """Whether every column the query touches sits inside the index key."""
        if not self._use_covering_scans or needed is None:
            return False
        key = {column.lower() for column in index.columns}
        return set(needed) <= key

    @staticmethod
    def _static_range(conjuncts) -> KeyRange | None:
        """The range the literal ``conjuncts`` admit, tightened as execution
        tightens it — or None when it is unknown at plan time: a ``?``
        placeholder, or literals that cannot be ordered against each other.
        The estimator then falls back to its default selectivities.
        """
        if any(p.value is PLACEHOLDER for p in conjuncts):
            return None
        try:
            return KeyRange.tighten((p.operator, p.value) for p in conjuncts)
        except TypeError:
            return None

    def _estimate(self, index, prefix) -> float:
        """Estimated entries the probe answering ``prefix`` walks."""
        return index.estimate_matches(len(prefix.pinned), self._static_range(prefix.range))

    def _index_probe_estimate(self, index, est_matches: float, fetch_rows: float) -> float:
        """Cost of one index read: descend the tree, walk ``est_matches``
        entries, heap-fetch ``fetch_rows`` of them (one random page each).

        The descent and entry walk are priced at ``tuple_cpu`` per level/entry
        — exactly what execution charges for the in-memory tree — while each
        heap fetch carries the random-page price the buffer pool may charge.
        """
        cost_model = self._database.cost_model
        return (
            cost_model.statement_overhead
            + (index.height + est_matches) * cost_model.tuple_cpu
            + fetch_rows * (cost_model.random_page_read + cost_model.tuple_cpu)
        )

    def _plan_table_access(self, table, predicates, needed=None) -> PlanNode:
        cost_model = self._database.cost_model
        if not self._use_index_paths:
            return self._seq_scan_node(table)
        pk = table.schema.primary_key
        point = None
        if pk is not None:
            point = next(
                (
                    predicate
                    for predicate in predicates
                    if predicate.operator == "=" and predicate.column.lower() == pk.lower()
                ),
                None,
            )
        if point is not None:
            return IndexRange(
                table,
                point,
                estimated_seconds=cost_model.statement_overhead + cost_model.random_page_read,
                detail=f"primary-key hash lookup on {pk!r} (1 random page)",
            )
        best = self._seq_scan_node(table)
        best_cost = best.estimated_seconds
        for index in table.secondary_indexes.values():
            prefix = leftmost_prefix(index.columns, predicates)
            if not prefix.conjuncts:
                continue
            est = self._estimate(index, prefix)
            covering = self._covers(index, needed)
            cost = self._index_probe_estimate(index, est, 0.0 if covering else est)
            if cost < best_cost:
                best_cost = cost
                fetch = (
                    "index-only, no heap fetches" if covering else "heap fetch per match"
                )
                best = SecondaryIndexRange(
                    table,
                    index.name,
                    index.columns,
                    predicates,
                    covering=covering,
                    estimated_seconds=cost,
                    detail=(
                        f"B+-tree probe on {', '.join(repr(c) for c in index.columns)} "
                        f"(~{est:.0f} of {table.row_count()} rows) + {fetch}"
                        f"{_covering_flag(covering)}"
                    ),
                )
        return best

    @staticmethod
    def _needed_columns(table, predicates, select: Select, order, output) -> set[str]:
        """Every column this single-table read touches (for covering checks)."""
        if output is None and not select.count:
            return {name.lower() for name in table.schema.column_names()}
        touched = [*(output or ()), *(predicate.column for predicate in predicates)]
        return {column.lower() for column in touched + ([order] if order else [])}

    @staticmethod
    def _order_prefix(index, order_column: str, predicates):
        """The probe of a walk of ``index`` in ``order_column`` order, or None
        when walking it in key order would not yield that order.

        The order column must be a key column with every earlier key column
        pinned (a fixed prefix makes the tuple-key order the order column's
        order), and the key up to the order column must answer every WHERE
        conjunct — a residual-only conjunct could drop rows the early LIMIT
        already cut.
        """
        columns = [column.lower() for column in index.columns]
        if order_column.lower() not in columns:
            return None
        position = columns.index(order_column.lower())
        prefix = leftmost_prefix(index.columns[: position + 1], predicates)
        if len(prefix.pinned) < position or len(prefix.conjuncts) < len(predicates):
            return None
        return prefix

    def _plan_table_read(self, table, predicates, select: Select, order, output):
        """Access path for a FROM-side base table, with index-ordered fusion.

        Returns ``(node, order_fused)``.  ``ORDER BY col LIMIT k`` over an
        index key column (leading, or prefixed by equality-pinned columns)
        considers walking the index in key order — forward or along the
        ``prev_leaf`` back-chain for DESC — and heap-fetching at most k rows,
        priced against the best unordered access plus an n·log n sort; fusion
        requires every WHERE conjunct to be served by that same index
        (otherwise the residual Filter could drop rows the early LIMIT
        already cut).
        """
        needed = self._needed_columns(table, predicates, select, order, output)
        access = self._plan_table_access(table, predicates, needed=needed)
        if (
            not self._use_index_paths
            or order is None
            or select.limit is None
            or isinstance(access, IndexRange)  # pk point: at most one row
        ):
            return access, False
        cost_model = self._database.cost_model
        order_column = table.schema.column(order).name
        best = access
        best_cost = None
        order_fused = False
        for index in table.secondary_indexes.values():
            prefix = self._order_prefix(index, order_column, predicates)
            if prefix is None:
                continue
            est = self._estimate(index, prefix)
            fetches = min(est, float(select.limit))
            # Both directions early-exit after k entries: ascending walks the
            # leaf chain forward, descending walks the prev_leaf back-chain.
            walked = fetches
            covering = self._covers(index, needed)
            fused_cost = self._index_probe_estimate(index, walked, 0.0 if covering else fetches)
            if best_cost is None:
                best_cost = (access.estimated_seconds or 0.0) + cost_model.sort_cost(
                    max(1, int(est))
                )
            if fused_cost < best_cost:
                best_cost = fused_cost
                order_fused = True
                fetch = (
                    "no heap fetches" if covering else f"at most {select.limit} heap fetches"
                )
                best = SecondaryIndexRange(
                    table,
                    index.name,
                    index.columns,
                    predicates,
                    order=(order_column, "desc" if select.descending else "asc"),
                    limit=select.limit,
                    covering=covering,
                    estimated_seconds=fused_cost,
                    detail=(
                        f"index-ordered walk of {order_column!r}; {fetch}, "
                        f"Sort/TopK elided{_covering_flag(covering)}"
                    ),
                )
        return best, order_fused

    @staticmethod
    def _view_read(reader, operation: str) -> dict[str, object]:
        """What one view read is annotated with: the reader's own estimate and
        the ``EXPLAIN`` detail for who the planner saw answering it."""
        return {
            "estimated_seconds": reader.estimate(operation),
            "detail": _VIEW_READ_DETAILS[operation][reader.served].format(n=reader.fanout),
        }

    def _plan_view_access(self, view, predicates, allow_probe_lookup: bool = False) -> PlanNode:
        """Choose the access path for a classification-view source.

        ``allow_probe_lookup`` is set for the JOIN side *when the join key is
        the view's entity key*: a predicate-free view, served or not (serving
        never changes a plan's shape), then becomes a batch point-lookup driven
        by the probe side's join keys instead of a full materialization.  The
        view's reader is captured **once** — ``STOP SERVING`` on another thread
        between here and node construction must degrade to the unserved plan,
        never crash planning (execution asks the view for its reader again
        anyway).
        """
        key_column = view.definition.view_key.lower()
        class_eq = next(
            (p for p in predicates if p.column.lower() == "class" and p.operator == "="),
            None,
        )
        key_eq = next(
            (p for p in predicates if p.column.lower() == key_column and p.operator == "="),
            None,
        )
        key_ranges = [
            p
            for p in predicates
            if p.column.lower() == key_column and p.operator in _RANGE_OPERATORS
        ]
        reader = view.reader()
        served = reader.served
        if allow_probe_lookup and not predicates:
            return ViewPointRead(
                view,
                None,
                key_type=self._view_key_type(view),
                served=served,
                estimated_seconds=None,
                detail=_VIEW_READ_DETAILS["labels_of"][served].format(n=reader.fanout),
            )
        if key_eq is not None:
            return ViewPointRead(view, key_eq, served=served, **self._view_read(reader, "label_of"))
        if class_eq is not None and key_ranges:
            return ViewRangeRead(
                view, class_eq, key_ranges, served=served, **self._view_read(reader, "range_scan")
            )
        if class_eq is not None:
            return ViewMembers(
                view, class_eq, served=served, **self._view_read(reader, "all_members")
            )
        return ViewScan(view, served=served, **self._view_read(reader, "contents"))

    # -- join planning --------------------------------------------------------------------

    @staticmethod
    def _join_keys(join, scope: _Scope) -> tuple[str, str]:
        """The ON columns, the left side's first: one from each side."""
        left = scope.resolve(join.left_column, join.left_position, "JOIN ON")
        right = scope.resolve(join.right_column, join.right_position, "JOIN ON")
        if {left[0], right[0]} != {0, 1}:
            raise SQLPlanningError(
                "JOIN ... ON must reference one column from each side",
                position=join.left_position,
                token=join.left_column,
            )
        return (left[1], right[1]) if left[0] == 0 else (right[1], left[1])

    def _plan_join(self, scope: _Scope, keys: tuple[str, str], predicates) -> HashJoin:
        left, right = scope.sources
        left_key, right_key = keys
        # The batched probe-lookup treats the probe side's join values as
        # entity ids, so it is only sound when the join key IS the view's
        # entity key; joins on any other column (e.g. ON t.topic = v.class)
        # must materialize the view instead.
        probe_ok = (
            right.kind == "classification_view"
            and right_key.lower() == right.obj.definition.view_key.lower()
        )
        return HashJoin(
            self._plan_source(left, predicates[0])[0],
            self._plan_source(right, predicates[1], probe_lookup=probe_ok)[0],
            left_key,
            right_key,
            scope.renames,
            estimated_seconds=0.0,
            detail=f"build on {right.name}, probe with {left.name}",
        )
