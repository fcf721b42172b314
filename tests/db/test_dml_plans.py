"""One WHERE: ``UPDATE`` and ``DELETE`` find their rows through the planner.

A write locates its rows by running the plan of ``SELECT <pk> FROM t WHERE
<the same conjuncts>`` — so its WHERE is validated at plan time (even on an
empty table), takes the access path a read would, is cached with the prepared
statement and shows up in ``EXPLAIN``.  The executor keeps no scan loop and no
predicate evaluator of its own (the AST walk at the bottom).
"""

from __future__ import annotations

import ast
import inspect

import pytest

import repro
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql import executor as executor_module
from repro.db.sql.parser import parse
from repro.exceptions import CatalogError, SQLExecutionError, SQLPlanningError, SQLSyntaxError
from repro.net.admission import BULK_LANE, lane_for


@pytest.fixture
def db() -> Database:
    database = Database(cost_model=CostModel.main_memory())  # prices a probe under a scan
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, tag TEXT)")
    return database


def fill(database: Database, count: int = 60) -> None:
    for i in range(count):
        database.execute("INSERT INTO t (id, x, tag) VALUES (?, ?, ?)", (i, i % 7, f"g{i % 3}"))


class TestTheWhereIsValidatedWhenItIsPlanned:
    """Defect A: a DML WHERE was checked only if a row happened to be there."""

    STATEMENTS = {
        "UPDATE t SET x = 1 WHERE nope = 1": 25,
        "DELETE FROM t WHERE nope = 1": 20,
    }

    @pytest.mark.parametrize("populated", [False, True], ids=["empty", "populated"])
    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_unknown_column_is_a_planning_error_pointing_at_it(self, db, sql, populated):
        if populated:
            fill(db, 3)
        with pytest.raises(SQLPlanningError) as raised:
            db.execute(sql)
        assert raised.value.position == self.STATEMENTS[sql] == sql.index("nope")
        assert raised.value.token == "nope"
        assert str(raised.value) == (
            "unknown column 'nope' in WHERE clause (source 't' has columns id, x, tag)"
        )
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == (3 if populated else 0)

    def test_a_qualifier_naming_the_target_table_is_accepted(self, db):
        fill(db, 3)
        assert db.execute("UPDATE t SET x = 9 WHERE t.id = 1").rowcount == 1
        assert db.execute("SELECT x FROM t WHERE id = 1").scalar() == 9
        assert db.execute("DELETE FROM t WHERE t.id = 1").rowcount == 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_a_qualifier_naming_another_table_is_refused_as_a_read_refuses_it(self, db):
        fill(db, 3)
        with pytest.raises(SQLPlanningError, match="unknown table qualifier 'other'") as raised:
            db.execute("UPDATE t SET x = 2 WHERE other.id = 1")
        assert raised.value.token == "other.id"
        assert db.execute("SELECT x FROM t WHERE id = 1").scalar() == 1


class TestWhatMustNotMove:
    """Each of these raises what it raised before DML was planned."""

    def test_no_primary_key(self, db):
        db.execute("CREATE TABLE heap (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO heap (a, b) VALUES (1, 2)")
        with pytest.raises(SQLExecutionError, match="UPDATE requires a primary key on 'heap'"):
            db.execute("UPDATE heap SET b = 3 WHERE a = 1")
        with pytest.raises(SQLExecutionError, match="DELETE requires a primary key on 'heap'"):
            db.execute("DELETE FROM heap WHERE a = 1")

    @pytest.mark.parametrize("sql", ["UPDATE nowhere SET x = 1", "DELETE FROM nowhere WHERE id = 1"])
    def test_unknown_table(self, db, sql):
        with pytest.raises(CatalogError, match="no table named 'nowhere'"):
            db.execute(sql)

    def test_a_view_or_system_table_is_no_target(self):
        from tests.db.test_sql_serving import build_portal

        database, _, _ = build_portal(count=12)
        target = "labeled_papers"
        with pytest.raises(CatalogError, match=f"no table named '{target}'"):
            database.execute(f"UPDATE {target} SET class = 'database' WHERE id = 1")
        with pytest.raises(CatalogError, match=f"no table named '{target}'"):
            database.execute(f"DELETE FROM {target} WHERE id = 1")
        for sql in ("UPDATE system.metrics SET value = 0", "DELETE FROM system.metrics"):
            with pytest.raises(SQLSyntaxError):  # a dotted name is no DML target
                database.execute(sql)

    def test_too_few_parameters(self, db):
        fill(db, 3)
        for sql, parameters in (
            ("UPDATE t SET x = ? WHERE id = ?", ()),  # a missing SET value
            ("UPDATE t SET x = ? WHERE id = ?", (5,)),  # a missing WHERE value
            ("UPDATE t SET x = 5 WHERE id = ? AND x = ?", (1,)),
            ("DELETE FROM t WHERE id = ?", ()),
        ):
            with pytest.raises(SQLExecutionError, match="not enough parameters for placeholders"):
                db.execute(sql, parameters)
        assert db.execute("SELECT x FROM t").rows == [{"x": 0}, {"x": 1}, {"x": 2}]

    def test_set_placeholders_precede_the_wheres(self, db):
        fill(db, 10)
        assert db.execute("UPDATE t SET x = ?, tag = ? WHERE id = ? AND x = ?", (70, "new", 4, 4)).rowcount == 1
        assert db.execute("SELECT * FROM t WHERE id = 4").rows == [{"id": 4, "x": 70, "tag": "new"}]

    def test_explain_analyze_of_a_write_stays_refused(self, db):
        with pytest.raises(SQLExecutionError, match="EXPLAIN ANALYZE supports SELECT statements only"):
            db.execute("EXPLAIN ANALYZE UPDATE t SET x = 1 WHERE id = 1")

    def test_explain_insert_is_unchanged(self, db):
        assert db.execute("EXPLAIN INSERT INTO t (id, x, tag) VALUES (1, 1, 'a')").rows == [
            {
                "node": "INSERT(t)",
                "estimated_seconds": None,
                "detail": "DML statements run triggers; cost depends on attached views",
            }
        ]


class TestTheLocatingPlanRunsToCompletionBeforeTheFirstWrite:
    def test_an_update_moving_rows_along_the_index_it_was_found_through(self, db):
        fill(db)
        db.execute("CREATE INDEX idx_x ON t (x)")
        rows = db.execute("EXPLAIN UPDATE t SET x = ? WHERE x >= ?").rows
        assert rows[-1]["node"].strip().startswith("SecondaryIndexRange(t.idx_x")
        # Every row moves *up* the index it is being located through; a plan
        # interleaved with the writes would meet the moved rows again.
        matched = db.execute("SELECT COUNT(*) FROM t WHERE x >= 3").scalar()
        assert db.execute("UPDATE t SET x = ? WHERE x >= ?", (50, 3)).rowcount == matched
        assert db.execute("SELECT COUNT(*) FROM t WHERE x = 50").scalar() == matched
        assert db.execute("DELETE FROM t WHERE x >= ?", (50,)).rowcount == matched
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 60 - matched

    def test_triggers_fire_once_per_located_row_in_plan_order(self, db):
        from repro.db.triggers import Trigger, TriggerEvent

        fill(db, 10)
        seen = []
        for event in (TriggerEvent.AFTER_UPDATE, TriggerEvent.AFTER_DELETE):
            db.catalog.table("t").add_trigger(
                Trigger(event.value, event, lambda _, new, old: seen.append((new or old)["id"]))
            )
        assert db.execute("UPDATE t SET tag = 'hit' WHERE x = 2").rowcount == 2
        assert db.execute("DELETE FROM t WHERE x = 1").rowcount == 2
        assert seen == [2, 9, 1, 8]


class TestExplainOfAWrite:
    """``tests/db/test_view_explain_table.py``'s shape, for tables."""

    PREDICATES = {
        "id = 7": "IndexRange(t.id = 7)",
        "x = 3": "SecondaryIndexRange(t.idx_x: x = 3)",
        "x >= 2 AND x < 4 AND tag = 'g1'": "SecondaryIndexRange(t.idx_x: x >= 2 AND x < 4)",
        "tag = 'g1'": "SeqScan(t)",
    }

    @pytest.mark.parametrize("verb", ["UPDATE t SET tag = 'w'", "DELETE FROM t"])
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_rows_below_the_first_are_the_selects(self, db, verb, predicate):
        fill(db)
        db.execute("CREATE INDEX idx_x ON t (x)")
        write = db.execute(f"EXPLAIN {verb} WHERE {predicate}").rows
        read = db.execute(f"EXPLAIN SELECT id FROM t WHERE {predicate}").rows
        assert write[0]["node"] == f"{verb.split()[0]}(t)"
        assert write[0]["estimated_seconds"] == sum(row["estimated_seconds"] for row in read)
        assert "DML statements run triggers" not in write[0]["detail"]
        assert write[1:] == [{**row, "node": "  " + row["node"]} for row in read]
        assert write[-1]["node"].strip() == self.PREDICATES[predicate]
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 60  # EXPLAIN writes nothing

    def test_explain_refuses_what_the_write_would_refuse(self, db):
        with pytest.raises(CatalogError, match="no table named 'nowhere'"):
            db.execute("EXPLAIN DELETE FROM nowhere WHERE id = 1")
        with pytest.raises(SQLPlanningError, match="unknown column 'nope'"):
            db.execute("EXPLAIN UPDATE t SET x = 1 WHERE nope = 1")


class TestAPreparedWriteCachesItsPlan:
    UPDATE = "UPDATE t SET tag = ? WHERE x = ?"

    def test_one_miss_then_hits_and_one_replan_after_ddl_elsewhere(self):
        with (
            repro.connect(cost_model=CostModel.main_memory()) as conn,
            repro.connect(engine=conn.engine) as other,
        ):
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, tag TEXT)")
            conn.executemany(
                "INSERT INTO t (id, x, tag) VALUES (?, ?, ?)", [(i, i % 7, "g") for i in range(60)]
            )
            before = conn.plan_cache_stats()
            conn.execute(self.UPDATE, ("a", 1))
            first = conn.prepare(self.UPDATE).plan  # (a hit)
            conn.execute(self.UPDATE, ("b", 2))
            stats = conn.plan_cache_stats()
            assert stats["misses_total"] - before["misses_total"] == 1
            assert stats["hits_total"] - before["hits_total"] == 2
            assert conn.prepare(self.UPDATE).plan is first
            assert first.explain_rows()[-1]["node"].strip() == "SeqScan(t)"
            row = conn.execute(
                "SELECT hits_total, misses_total FROM system.plan_cache WHERE connection = ?",
                (conn.name,),
            ).fetchall()
            # (One more hit from the ``prepare`` above, one miss for this SELECT itself.)
            assert row == [
                {"hits_total": stats["hits_total"] + 1, "misses_total": stats["misses_total"] + 1}
            ]

            other.execute("CREATE INDEX idx_x ON t (x)")
            invalidations = conn.plan_cache_stats()["invalidations_total"]
            assert conn.execute(self.UPDATE, ("c", 3)).rowcount == 9
            replanned = conn.prepare(self.UPDATE).plan
            assert replanned is not first
            assert replanned.explain_rows()[-1]["node"].strip().startswith("SecondaryIndexRange")
            conn.execute(self.UPDATE, ("d", 3))
            assert conn.prepare(self.UPDATE).plan is replanned
            assert conn.plan_cache_stats()["invalidations_total"] == invalidations + 1
            assert conn.execute("SELECT COUNT(*) FROM t WHERE tag = 'd'").scalar() == 9

    def test_executemany_rebinds_one_plan(self):
        with repro.connect() as conn:
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, tag TEXT)")
            conn.executemany(
                "INSERT INTO t (id, x, tag) VALUES (?, ?, ?)", [(i, i % 7, "g") for i in range(21)]
            )
            assert conn.executemany(self.UPDATE, [("a", 1), ("b", 2), ("c", 99)]).rowcount == 6
            assert conn.executemany("DELETE FROM t WHERE id = ?", [(0,), (1,), (1,)]).rowcount == 2

    def test_a_traced_write_carries_its_plans_estimate(self):
        with repro.connect() as conn:
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, tag TEXT)")
            conn.execute("INSERT INTO t (id, x, tag) VALUES (1, 1, 'a')")
            conn.execute("DELETE FROM t WHERE id = ?", (1,))
            trace = conn.database.obs.traces.snapshot()[-1]
            spans = {span.name: span for span in trace.spans()}
            located = conn.prepare("DELETE FROM t WHERE id = ?").plan.explain_rows()
            assert spans["execute"].estimated_seconds == sum(
                row["estimated_seconds"] for row in located
            ) > 0.0
            assert "node:IndexRange(t.id = ?)" in spans  # the locating plan, node by node

    def test_a_traced_read_carries_the_sum_of_its_nodes_estimates(self):
        """A ``Project`` root estimates only itself (0.0): the statement is the whole tree."""
        with repro.connect() as conn:
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, tag TEXT)")
            conn.execute("INSERT INTO t (id, x, tag) VALUES (1, 1, 'a')")
            conn.execute("SELECT x FROM t WHERE id = ?", (1,))
            trace = conn.database.obs.traces.snapshot()[-1]
            spans = {span.name: span for span in trace.spans()}
            rows = conn.prepare("SELECT x FROM t WHERE id = ?").plan.explain_rows()
            assert rows[0]["node"].startswith("Project") and rows[0]["estimated_seconds"] == 0.0
            expected = sum(row["estimated_seconds"] for row in rows)
            assert expected > 0.0
            assert spans["plan"].estimated_seconds == spans["execute"].estimated_seconds == expected

    @pytest.mark.parametrize("sql", [UPDATE, "DELETE FROM t WHERE id = ?"])
    def test_a_write_stays_on_the_bulk_lane_planned_or_not(self, db, sql):
        """A write runs triggers: a point-shaped locating plan does not make
        it a point read."""
        statement = parse(sql)
        plan = db.executor.plan_for(statement)
        assert plan is not None
        assert lane_for(statement, plan) == BULK_LANE
        assert lane_for(statement, None) == BULK_LANE


class TestTheExecutorKeepsNoScanLoopOfItsOwn:
    """``tests/db/test_view_read_seam.py``'s style: an AST walk."""

    def test_executor_calls_no_scan_and_touches_no_heap(self):
        tree = ast.parse(inspect.getsource(executor_module))
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not attributes & {"scan", "heap", "try_get_by_key", "secondary_index"}
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not names & {"_matches", "_bind_where", "_execute_update", "_execute_delete"}
        assert not hasattr(executor_module.SQLExecutor, "_matches")
        assert not hasattr(executor_module.SQLExecutor, "_bind_where")

    def test_one_parameter_count_check(self):
        """``SQLExecutor.execute`` checks the ``?`` count once, for WHERE,
        VALUES and SET alike; no binder checks it again."""
        import repro.db.sql as package
        from pathlib import Path

        text = "not enough parameters for placeholders"
        hits = {
            path.name: path.read_text(encoding="utf-8").count(text)
            for path in Path(package.__file__).parent.glob("*.py")
        }
        assert {name: count for name, count in hits.items() if count} == {"executor.py": 1}
