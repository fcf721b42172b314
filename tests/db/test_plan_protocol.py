"""The one-executor contract of :mod:`repro.db.sql.plan`.

Every plan node returns its whole answer as one columnar ``Chunk`` through a
single producer method and a single measured entry point, and there is one
execution mode: no option selects a chunk size or a dispatch charge.  These
tests pin the protocol's completeness (every node of every shape the golden
plan table pins returns one ``Chunk``), answers over a 1,029-row table
against the forced-``SeqScan`` reference, empty answers that raise nothing,
the NULL placement of every ordering path, and the documented error for a
type-mismatched bound.
"""

from __future__ import annotations

import ast
import inspect
import json
from dataclasses import fields

import pytest

import repro
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql import plan
from repro.db.sql.parser import parse
from repro.db.sql.plan import Chunk, NodeStats, PlanNode, PlanRuntime
from repro.db.sql.planner import Planner
from repro.exceptions import SQLExecutionError

from tests.db import test_select_plan_table as golden_shapes
from tests.db.test_sql_plan import PreFeaturizedColumn, balanced_portal


# ---------------------------------------------------------------------------
# Protocol completeness
# ---------------------------------------------------------------------------


#: The bound values of the golden shapes that take ``?`` placeholders.
GOLDEN_PARAMETERS = {"placeholder": [4, 0.0], "join placeholder": [4, 10]}


def _node_classes() -> list[type]:
    exported = [getattr(plan, name) for name in plan.__all__]
    return [
        obj
        for obj in exported
        if inspect.isclass(obj) and issubclass(obj, PlanNode) and obj is not PlanNode
    ]


class TestProtocolCompleteness:
    def test_every_exported_node_overrides_the_one_producer(self):
        nodes = _node_classes()
        assert len(nodes) == 15, [cls.__name__ for cls in nodes]
        for cls in nodes:
            assert cls._produce is not PlanNode._produce, cls.__name__
            for klass in cls.__mro__:
                assert "_run" not in vars(klass), f"{klass.__name__} defines _run"
                assert "_run_chunks" not in vars(klass), klass.__name__

    def test_plan_node_has_exactly_one_measured_entry_point(self):
        measured = [
            name
            for name, member in vars(PlanNode).items()
            if inspect.isfunction(member) and "runtime.cost()" in inspect.getsource(member)
        ]
        assert measured == ["execute"]
        # ... and no subclass re-implements the measurement.
        for cls in _node_classes():
            for klass in cls.__mro__[:-2]:  # up to, excluding, PlanNode and object
                for name, member in vars(klass).items():
                    if inspect.isfunction(member):
                        assert "runtime.cost()" not in inspect.getsource(member), (
                            f"{klass.__name__}.{name} measures on its own"
                        )

    def test_deleted_names_stay_deleted(self):
        assert "row_matches" not in plan.__all__
        assert not hasattr(plan, "row_matches")
        assert not hasattr(plan.Predicate, "test")
        assert not hasattr(PlanRuntime, "batched")
        for name in ("_probe_keys", "_right_rows"):
            assert not hasattr(plan.HashJoin, name)
        assert not hasattr(plan.SecondaryIndexRange, "_covered_row")
        assert not hasattr(plan, "DEFAULT_CHUNK_ROWS")
        for name in ("split", "concat", "_slice"):
            assert not hasattr(plan.Chunk, name), name

    def test_every_node_of_every_golden_shape_returns_one_chunk(self, monkeypatch):
        """Each node of each read ``select_plan_golden.json`` pins, unserved
        and on 2 shards, returns one ``Chunk`` from ``execute``, and the root's
        is the answer."""
        returned: dict[int, list] = {}
        execute = PlanNode.execute

        def recording(node, runtime):
            chunk = execute(node, runtime)
            returned.setdefault(id(node), []).append(chunk)
            return chunk

        monkeypatch.setattr(PlanNode, "execute", recording)
        db = golden_shapes.build()
        shapes = [("unserved", golden_shapes.TABLE_READS)]
        shapes += [(state, golden_shapes.VIEW_READS) for state in golden_shapes.STATES]
        for state, reads in shapes:
            if state == "2 shards":
                db.execute("SERVE VIEW labeled WITH (shards = 2)")
            for read, sql in reads.items():
                select = db.executor.plan_select(parse(sql))
                returned.clear()
                rows, _ = select.run(db, GOLDEN_PARAMETERS.get(read, []), None)
                for _, node in select.root.walk():
                    (chunk,) = returned[id(node)]
                    assert type(chunk) is Chunk, (read, state, node.label())
                assert returned[id(select.root)][0].to_rows() == rows, (read, state)
        db.execute("STOP SERVING labeled")

    def test_one_execution_mode(self):
        """No option picks a chunk size or a per-tuple dispatch charge: every
        node returns one chunk and charges only storage."""
        for entry in (Database.__init__, repro.connect):
            assert "execution_mode" not in inspect.signature(entry).parameters
        assert "row_interpret_cpu" not in {field.name for field in fields(CostModel)}
        assert list(inspect.signature(PlanRuntime).parameters) == [
            "database",
            "parameters",
            "context",
            "cost_probe",
        ]
        assigned = {
            node.attr
            for node in ast.walk(ast.parse(inspect.getsource(PlanRuntime)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        }
        assert not {"mode", "chunk_rows", "interpret_cpu"} & assigned, assigned
        for cls in [PlanNode, *_node_classes()]:
            assert not hasattr(cls, "interpreted"), cls.__name__


# ---------------------------------------------------------------------------
# Probe reads: only the nodes that touch storage read the cost probe
# ---------------------------------------------------------------------------


def measured_execute(node: PlanNode, runtime: PlanRuntime) -> Chunk:
    """Every node reads the probe before and after it runs: the reference a
    one-child node's borrowed figures must equal bit for bit."""
    start = runtime.cost()
    chunk = node._produce(runtime)
    inclusive = runtime.cost() - start
    children = sum(runtime.stats_of(child).inclusive for child in node.children)
    runtime.node_stats[id(node)] = NodeStats(chunk.length, inclusive - children, inclusive)
    return chunk


def golden_node_stats(architecture: str) -> dict[tuple[str, str], list[tuple[str, str]]]:
    """``(label, repr(NodeStats))`` per node of every golden read, unserved
    and on 2 shards, over a freshly built golden database."""
    db = golden_shapes.build(architecture)
    shapes = [("unserved", golden_shapes.TABLE_READS)]
    shapes += [(state, golden_shapes.VIEW_READS) for state in golden_shapes.STATES]
    stats = {}
    try:
        for state, reads in shapes:
            if state == "2 shards":
                db.execute("SERVE VIEW labeled WITH (shards = 2)")
            for read, sql in reads.items():
                select = db.executor.plan_select(parse(sql))
                _, runtime = select.run(db, GOLDEN_PARAMETERS.get(read, []), None)
                stats[(state, read)] = [
                    (node.label(), repr(runtime.stats_of(node))) for _, node in select.root.walk()
                ]
    finally:
        db.execute("STOP SERVING labeled")
    return stats


class TestProbeReads:
    @pytest.mark.parametrize("state", golden_shapes.STATES)
    def test_a_point_statement_reads_the_probe_twice(self, monkeypatch, state):
        """``SELECT class FROM v WHERE id = ?`` runs ``Project`` over the
        view's point read: the read takes the probe's two readings, and the
        ``Project`` takes its figures."""
        db = golden_shapes.build()
        if state != "unserved":
            db.execute("SERVE VIEW labeled WITH (shards = 2)")
        try:
            select = db.executor.plan_select(parse("SELECT class FROM labeled WHERE id = ?"))
            probe = select.cost_probe(db)
            reads = []

            def counted() -> float:
                reads.append(None)
                return probe()

            monkeypatch.setattr(select, "cost_probe", lambda database: counted)
            rows, runtime = select.run(db, [1], None)
        finally:
            if state != "unserved":
                db.execute("STOP SERVING labeled")
        assert len(rows) == 1
        assert len(reads) == 2
        project, read = [node for _, node in select.root.walk()]
        assert runtime.stats_of(project) == NodeStats(1, 0.0, runtime.stats_of(read).inclusive)

    @pytest.mark.parametrize("architecture", ["mainmemory", "ondisk", "hybrid"])
    def test_every_node_records_what_its_own_probe_readings_give(self, monkeypatch, architecture):
        """Each node's rows and seconds, its own and inclusive, are the ones
        it records when every node reads the probe around itself."""
        taken = golden_node_stats(architecture)
        monkeypatch.setattr(PlanNode, "execute", measured_execute)
        assert taken == golden_node_stats(architecture)


# ---------------------------------------------------------------------------
# A 1,029-row table vs the forced-SeqScan reference
# ---------------------------------------------------------------------------

BIG_ROWS = 1029


def big_db() -> Database:
    """``big`` holds 1,029 rows; ``other`` four of its keys."""
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE big (id integer PRIMARY KEY, v integer, w float)")
    db.executemany(
        "INSERT INTO big (id, v, w) VALUES (?, ?, ?)",
        [(i, (i * 37) % 101, float((i * 13) % 29)) for i in range(BIG_ROWS)],
    )
    db.execute("CREATE TABLE other (id integer PRIMARY KEY, tag text)")
    db.executemany(
        "INSERT INTO other (id, tag) VALUES (?, ?)",
        [(i, f"t{i}") for i in (3, 1023, 1024, BIG_ROWS - 1)],
    )
    return db


#: (sql, ordered) — ``ordered`` answers are compared as sequences.
BIG_QUERIES = [
    ("SELECT * FROM big LIMIT 1026", True),
    ("SELECT id FROM big WHERE id >= 1024", True),
    ("SELECT id FROM big WHERE id < 1024", True),
    ("SELECT id, w FROM big ORDER BY w DESC", True),  # Sort
    ("SELECT id, v FROM big ORDER BY v LIMIT 1026", True),  # TopK
    ("SELECT big.id, other.tag FROM big JOIN other ON big.id = other.id", False),
    ("SELECT COUNT(*) FROM big", True),
    ("SELECT COUNT(*) FROM big WHERE v > 50 AND id >= 1021", True),
]


class TestBigTable:
    @pytest.mark.parametrize("sql,ordered", BIG_QUERIES)
    def test_matches_forced_seqscan_reference(self, sql, ordered):
        db = big_db()
        db.execute("CREATE INDEX idx_v ON big (v)")
        got = db.execute(sql).rows
        reference, _ = Planner(db, use_index_paths=False).plan_select(parse(sql)).run(db, [], None)
        if not ordered:
            got = sorted(got, key=lambda row: row["id"])
            reference = sorted(reference, key=lambda row: row["id"])
        assert got == reference
        assert got, "a case must not be vacuous"

    def test_join_probe_keys_drive_one_batched_lookup(self):
        """A served, predicate-free join side is driven by every probe key of
        the 1,029-row left side through one batched lookup."""
        conn = repro.connect(architecture="mainmemory", strategy="hazy", approach="eager")
        try:
            conn.engine.registry.register("prefeaturized", PreFeaturizedColumn)
            conn.execute("CREATE TABLE entities (id integer PRIMARY KEY, features text)")
            conn.execute("CREATE TABLE examples (id integer, label integer)")
            conn.executemany(
                "INSERT INTO entities (id, features) VALUES (?, ?)",
                [(i, json.dumps({"0": 1.0 if i % 3 else -1.0, "1": 0.5})) for i in range(BIG_ROWS)],
            )
            conn.executemany(
                "INSERT INTO examples (id, label) VALUES (?, ?)",
                [(i, 1 if i % 3 else -1) for i in range(60)],
            )
            conn.execute(
                "CREATE CLASSIFICATION VIEW labeled KEY id "
                "ENTITIES FROM entities KEY id "
                "EXAMPLES FROM examples KEY id LABEL label "
                "FEATURE FUNCTION prefeaturized USING SVM"
            )
            conn.execute("SERVE VIEW labeled WITH (shards = 2)")
            sql = (
                "SELECT entities.id, class FROM entities JOIN labeled "
                "ON entities.id = labeled.id"
            )
            nodes = [row["node"].strip() for row in conn.execute(f"EXPLAIN {sql}").fetchall()]
            assert "ServedPointRead(labeled, batch)" in nodes
            got = {row["id"]: row["class"] for row in conn.execute(sql).fetchall()}
            view = conn.engine.view("labeled")
            assert got == {i: view.label_of(i) for i in range(BIG_ROWS)}
            assert len(set(got.values())) == 2, "fixture must split into both classes"
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# An empty answer is an answer: operators over zero rows raise nothing
# ---------------------------------------------------------------------------


def _empty_db() -> Database:
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
    db.execute("CREATE TABLE empty (id integer PRIMARY KEY, v integer)")
    db.executemany("INSERT INTO t (id, v) VALUES (?, ?)", [(i, i % 3) for i in range(5)])
    return db


#: A system table with no rows has no columns; a base table's zero-row answer
#: keeps its schema's.
EMPTY_ANSWERS = [
    "SELECT sql FROM system.slow_queries",
    "SELECT sql FROM system.slow_queries WHERE sql = 'x' ORDER BY sql",
    "SELECT sql FROM system.slow_queries ORDER BY sql LIMIT 3",
    "SELECT id FROM empty WHERE v > 1",
    "SELECT id FROM empty WHERE v > 1 ORDER BY v LIMIT 2",
    "SELECT id FROM t WHERE v > 7",
    "SELECT t.id, empty.v FROM t JOIN empty ON t.id = empty.id",
    "SELECT t.id FROM empty JOIN t ON empty.id = t.id WHERE t.v = 1",
    "SELECT t.id FROM t JOIN empty ON t.id = empty.id ORDER BY t.v LIMIT 1",
]


#: Every golden shape that reads ``items``, alone or as one side of a join.
EMPTIED_READS = {
    read: sql
    for read, sql in {**golden_shapes.TABLE_READS, **golden_shapes.VIEW_READS}.items()
    if "items" in sql
}


class TestEmptyAnswers:
    @pytest.mark.parametrize("sql", EMPTY_ANSWERS)
    def test_answers_no_rows(self, sql):
        assert _empty_db().execute(sql).rows == []

    def test_slow_queries_on_a_fresh_engine(self):
        with repro.connect() as conn:
            assert conn.execute("SELECT sql FROM system.slow_queries").fetchall() == []

    @pytest.mark.parametrize("read", list(EMPTIED_READS))
    def test_golden_plan_over_an_emptied_table(self, read, monkeypatch):
        """The recorded plan tree of each golden shape that reads ``items``,
        planned while the table holds rows and run after it is emptied: every
        node meets a zero-row child (an empty index walk, an empty join side)
        and still returns one ``Chunk``, and the answer is the forced-SeqScan
        reference's, which is no rows, or a zero count."""
        sql = EMPTIED_READS[read]
        parameters = GOLDEN_PARAMETERS.get(read, [])
        db = golden_shapes.build()
        select = db.executor.plan_select(parse(sql))
        db.execute("DELETE FROM items")
        returned: dict[int, list] = {}
        execute = PlanNode.execute

        def recording(node, runtime):
            chunk = execute(node, runtime)
            returned.setdefault(id(node), []).append(chunk)
            return chunk

        monkeypatch.setattr(PlanNode, "execute", recording)
        rows, _ = select.run(db, parameters, None)
        for _, node in select.root.walk():
            (chunk,) = returned[id(node)]
            assert type(chunk) is Chunk, node.label()
        monkeypatch.undo()
        reference, _ = Planner(db, use_index_paths=False).plan_select(parse(sql)).run(
            db, parameters, None
        )
        assert rows == reference
        counted = "COUNT(*)" in sql and "LIMIT 0" not in sql
        assert rows == ([{"count": 0}] if counted else [])

    def test_count_over_an_empty_table_is_zero(self):
        db = _empty_db()
        assert db.execute("SELECT COUNT(*) FROM empty WHERE v = 1").rows == [{"count": 0}]
        assert db.execute("SELECT COUNT(*) FROM empty LIMIT 0").rows == []


# ---------------------------------------------------------------------------
# NULL ordering: last ascending, first descending, on every ordering path
# ---------------------------------------------------------------------------


def nullable_db() -> Database:
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE papers (id integer PRIMARY KEY, year integer, venue text)")
    rows = [
        (1, 2009, "vldb"),
        (2, None, "sigmod"),
        (3, 2011, None),
        (4, 2007, "icde"),
        (5, None, None),
        (6, 2011, "cidr"),
        (7, 2003, "pods"),
    ]
    db.executemany("INSERT INTO papers (id, year, venue) VALUES (?, ?, ?)", rows)
    return db


def _expected_order(db: Database, column: str, descending: bool) -> list:
    values = [row[column] for row in db.execute("SELECT * FROM papers").rows]
    present = sorted((v for v in values if v is not None), reverse=descending)
    nulls = [None] * (len(values) - len(present))
    return nulls + present if descending else present + nulls


class TestNullOrdering:
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("column", ["year", "venue"])
    @pytest.mark.parametrize("path", ["Sort", "TopK", "SecondaryIndexRange"])
    def test_nulls_last_ascending_first_descending(self, path, column, descending):
        db = nullable_db()
        direction = "DESC" if descending else "ASC"
        sql = f"SELECT id, {column} FROM papers ORDER BY {column} {direction}"
        if path != "Sort":
            sql += " LIMIT 7"
        if path == "SecondaryIndexRange":
            # The NULL rows are unindexed, so the index-ordered node must
            # notice and fall back to the sorted scan.
            db.execute(f"CREATE INDEX idx_{column} ON papers ({column})")
        nodes = [row["node"].strip() for row in db.execute(f"EXPLAIN {sql}").rows]
        assert any(node.startswith(path) for node in nodes), nodes
        if path == "SecondaryIndexRange":
            assert not any(node.startswith(("Sort", "TopK")) for node in nodes), nodes
        got = [row[column] for row in db.execute(sql).rows]
        assert got == _expected_order(db, column, descending)

    def test_limit_cuts_after_null_placement(self):
        db = nullable_db()
        top = db.execute("SELECT id FROM papers ORDER BY year DESC LIMIT 3").rows
        assert [row["id"] for row in top] == [2, 5, 3]  # NULLs first, then 2011 (stable)
        bottom = db.execute("SELECT id FROM papers ORDER BY year LIMIT 2").rows
        assert [row["id"] for row in bottom] == [7, 4]


# ---------------------------------------------------------------------------
# A type-mismatched range bound raises the documented error
# ---------------------------------------------------------------------------


class TestIncomparableBound:
    def _conn(self, indexed: bool):
        conn = repro.connect()
        conn.execute("CREATE TABLE papers (id integer PRIMARY KEY, year integer)")
        conn.executemany(
            "INSERT INTO papers (id, year) VALUES (?, ?)", [(1, 2009), (2, 2011), (3, None)]
        )
        if indexed:
            conn.execute("CREATE INDEX idx_year ON papers (year)")
        return conn

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize(
        "sql,params",
        [
            ("SELECT * FROM papers WHERE year > ?", ("x",)),
            ("SELECT COUNT(*) FROM papers WHERE year >= 2000 AND year <= ?", ("x",)),
            ("UPDATE papers SET year = 1 WHERE year > ?", ("x",)),
            ("DELETE FROM papers WHERE year < ?", ("x",)),
        ],
    )
    def test_raises_sql_execution_error_naming_both_types(self, sql, params, indexed):
        with self._conn(indexed) as conn:
            with pytest.raises(SQLExecutionError, match=r"int column value.*str bound"):
                conn.execute(sql, params)
            # Nothing was modified by the failed DML.
            assert conn.execute("SELECT COUNT(*) FROM papers").scalar() == 3

    def test_equality_operators_never_raise(self):
        with self._conn(indexed=False) as conn:
            assert conn.execute("SELECT * FROM papers WHERE year = ?", ("x",)).fetchall() == []
            assert conn.execute("SELECT COUNT(*) FROM papers WHERE year != ?", ("x",)).scalar() == 3

    @pytest.mark.parametrize("served", [False, True])
    def test_view_range_pushdown_raises_the_documented_error(self, served):
        conn = balanced_portal()
        try:
            if served:
                conn.execute("SERVE VIEW labeled WITH (shards = 2)")
            with pytest.raises(SQLExecutionError, match="cannot be ordered against the keys"):
                conn.execute("SELECT id FROM labeled WHERE class = 1 AND id > ?", ("x",))
            # The view (and its server) keeps answering afterwards.
            assert conn.execute(
                "SELECT COUNT(*) FROM labeled WHERE class = 1 AND id >= 0"
            ).scalar() > 0
        finally:
            conn.close()
