"""Differential SQL oracle: index plans vs a forced-SeqScan ground truth.

A seeded generator produces random tables, secondary indexes — single-column
and composite — and a stream of SELECTs: equality and range predicates,
multi-conjunct WHEREs, joins (on the key, where every column collides, and on
a non-key column, where references go unqualified; ``*``, ``COUNT(*)`` and
ORDER BY / LIMIT over a joined column, a renamed right-side one too), explicit
projections (which can make an index probe *covering*), ``ORDER BY ...
ASC|DESC`` with and without LIMIT —
and every query is executed twice: once through the planner's chosen plan
(index paths enabled) and once through a reference
``Planner(db, use_index_paths=False)`` whose only base-table access path is
``SeqScan`` under the residual ``Filter``.  The two answers must be
identical: same row multiset always, and for ordered queries the same
ORDER BY column sequence (SQL leaves tie order unspecified, so ties are
compared as sets).

``COUNT(*)`` faces a second oracle, because the reference shares the planner
and so would share a fault in where a count is planned: beside each SELECT a
``COUNT(*)`` over a table or a join, with an ORDER BY and a LIMIT as often as
not, must answer the row count of the same read's ``SELECT *`` with its ORDER
BY and LIMIT dropped, that one row then cut by its LIMIT.

Writes face it too.  Before each generated ``UPDATE`` / ``DELETE`` — the
``WHERE num = ?`` of old, a composite-index prefix, ranges, up to three
conjuncts over any column (the assigned one included), literals and ``?``
mixed — the reference answers ``SELECT id FROM t WHERE <the same predicate>``;
the statement's ``rowcount`` must equal that answer's length, and afterwards
the table, read through the reference, must equal a dict model in which
exactly those keys changed or vanished.

The seed is fixed for the tier-1 run so failures reproduce; CI's nightly-style
job rotates it through ``SQL_DIFFERENTIAL_SEED`` to keep exploring new
programs without blocking merges.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql.parser import parse
from repro.db.sql.planner import Planner

#: Fixed default so tier-1 failures reproduce; the nightly CI job rotates it.
SEED = int(os.environ.get("SQL_DIFFERENTIAL_SEED", "20260731"))

QUERIES_PER_PROGRAM = 60
PROGRAMS = 6
ROWS_PER_TABLE = (40, 140)

_COMPARABLE_OPS = ("=", "!=", "<", "<=", ">", ">=")
#: ``t_c``'s columns: joined to ``t_a`` on ``num = cid``, none collides with ``t_a``'s.
_T_C = ("cid", "label", "weight")


def _canonical(rows: list[dict]) -> list[tuple]:
    """Order-insensitive canonical form of a result set (a sorted multiset)."""
    return sorted(tuple(sorted((k.lower(), repr(v)) for k, v in row.items())) for row in rows)


def _order_column_values(rows: list[dict], column: str) -> list:
    """The ``column`` values in row order (``column`` as the rows carry it)."""
    out = []
    for row in rows:
        matched = next(key for key in row if key.lower() == column.lower())
        out.append(row[matched])
    return out


def assert_equivalent(
    chosen: list[dict],
    reference: list[dict],
    sql: str,
    order_by=None,
    unlimited_reference: list[dict] | None = None,
):
    """Same multiset of rows; for ordered queries, the same key sequence.

    ``ORDER BY ... LIMIT k`` with a tie at the cutoff is the one place SQL
    itself is nondeterministic (either tied row is a correct answer), so for
    those queries the oracle checks the order-column sequence is identical
    and every chosen row is drawn from the *unlimited* reference answer.
    """
    if order_by is not None:
        assert _order_column_values(chosen, order_by) == _order_column_values(
            reference, order_by
        ), f"ORDER BY sequence differs for:\n  {sql}"
    if unlimited_reference is not None:
        assert len(chosen) == len(reference), f"row counts differ for:\n  {sql}"
        pool = _canonical(unlimited_reference)
        for row in _canonical(chosen):
            assert row in pool, (
                f"index plan produced a row outside the reference answer for:"
                f"\n  {sql}\n  row={row!r}"
            )
        return
    assert _canonical(chosen) == _canonical(reference), (
        f"index plan and SeqScan reference disagree for:\n  {sql}\n"
        f"  chosen={chosen!r}\n  reference={reference!r}"
    )


class Program:
    """One randomly generated schema + data + index set over a database."""

    def __init__(self, rng: random.Random, cost_model: CostModel):
        self.rng = rng
        self.db = Database(cost_model=cost_model)
        self.reference_planner = Planner(self.db, use_index_paths=False)
        self.columns = {
            "t_a": ["id", "num", "score", "tag"],
            "t_b": ["id", "num", "score", "tag"],
        }
        self.next_index = 0
        self.next_row_id = 10_000  # fresh-id counter: inserts can never collide
        self.live_indexes: list[str] = []
        #: What each table must hold: ``{table: {id: row}}``, kept by every write.
        self.model: dict[str, dict[int, dict]] = {table: {} for table in self.columns}
        #: Access node of every generated UPDATE/DELETE's locating plan; rows written.
        self.write_paths: Counter = Counter()
        self.rows_written = 0
        for table in self.columns:
            self.db.execute(
                f"CREATE TABLE {table} (id integer PRIMARY KEY, num integer, "
                "score float, tag text)"
            )
            for row_id in range(rng.randrange(*ROWS_PER_TABLE)):
                self.insert(table, row_id)
        # A fixed lookup table: 18 of ``num``'s 25 values, and an index to probe.
        self.db.execute("CREATE TABLE t_c (cid integer PRIMARY KEY, label text, weight integer)")
        self.db.executemany(
            "INSERT INTO t_c (cid, label, weight) VALUES (?, ?, ?)",
            [
                (cid, rng.choice(("red", "green", "blue")), rng.randrange(10))
                for cid in sorted(rng.sample(range(25), 18))
            ],
        )
        self.db.execute("CREATE INDEX idx_weight ON t_c (weight)")

    # -- random DDL/DML churn ------------------------------------------------------------

    def insert(self, table: str, row_id: int) -> None:
        rng = self.rng
        row = {
            "id": row_id,
            "num": rng.randrange(0, 25),
            "score": round(rng.uniform(-2.0, 2.0), 3),
            "tag": rng.choice(("alpha", "beta", "gamma", "delta")),
        }
        self.db.execute(
            f"INSERT INTO {table} (id, num, score, tag) VALUES (?, ?, ?, ?)", tuple(row.values())
        )
        self.model[table][row_id] = row

    def write(self, table: str) -> None:
        """One UPDATE or DELETE, against the forced-scan reference and the model."""
        rng = self.rng
        rows = self.model[table]
        shape = rng.random()
        if shape < 0.15 and rows:  # by primary key, the commonest write there is
            comparisons = [("id", "=", rng.choice(list(rows)))]
        elif shape < 0.35:  # the one shape generated before DML was planned
            comparisons = [("num", "=", rng.randrange(0, 25))]
        elif shape < 0.5:  # a composite (num, score) prefix: equality, then a range
            comparisons = [
                ("num", "=", rng.randrange(0, 25)),
                ("score", rng.choice(("<", "<=", ">", ">=")), round(rng.uniform(-2.0, 2.0), 3)),
            ]
        else:
            comparisons = [self._comparison() for _ in range(rng.choice((1, 1, 2, 3)))]
        conjuncts, bounds = [], []
        for column, op, value in comparisons:
            if rng.random() < 0.5:
                conjuncts.append(f"{column} {op} ?")
                bounds.append(value)
            else:
                conjuncts.append(f"{column} {op} {value!r}")
        where = " AND ".join(conjuncts)
        located = [
            row["id"] for row in self.run_reference(f"SELECT id FROM {table} WHERE {where}", bounds)
        ]
        # (A DELETE that would take an eighth of the table becomes an UPDATE:
        # the SELECTs need rows to disagree about.)
        if rng.random() < 0.55 or len(located) > max(3, len(rows) // 8):
            # ``num`` is often the column the WHERE (and a live index) is on.
            changes = {"num": rng.randrange(0, 25), "score": round(rng.uniform(-2.0, 2.0), 3)}
            sql, parameters = f"UPDATE {table} SET num = ?, score = ? WHERE {where}", [
                *changes.values(),
                *bounds,
            ]
            for key in located:
                rows[key].update(changes)
        else:
            sql, parameters = f"DELETE FROM {table} WHERE {where}", bounds
            for key in located:
                del rows[key]
        access = self.db.execute(f"EXPLAIN {sql}", parameters).rows[-1]["node"]
        self.write_paths[access.strip().partition("(")[0]] += 1
        self.rows_written += len(located)
        context = f"{sql}  {parameters!r}"
        assert self.db.execute(sql, parameters).rowcount == len(located), context
        stored = self.run_reference(f"SELECT * FROM {table}")
        assert len(stored) == len(rows) and {row["id"]: row for row in stored} == rows, context

    def mutate(self) -> None:
        rng = self.rng
        table = rng.choice(list(self.columns))
        roll = rng.random()
        if roll < 0.35:
            self.next_row_id += 1
            self.insert(table, self.next_row_id)
        elif roll < 0.8:
            self.write(table)
        elif roll < 0.92 or not self.live_indexes:
            name = f"idx_{self.next_index}"
            self.next_index += 1
            if rng.random() < 0.45:  # composite: two or three key columns
                columns = rng.sample(["num", "score", "tag"], rng.choice((2, 3)))
            else:
                columns = [rng.choice(["num", "score", "tag"])]
            self.db.execute(f"CREATE INDEX {name} ON {table} ({', '.join(columns)})")
            self.live_indexes.append(name)
        else:
            victim = self.live_indexes.pop(rng.randrange(len(self.live_indexes)))
            self.db.execute(f"DROP INDEX {victim}")

    # -- random SELECTs ------------------------------------------------------------------

    def _comparison(self) -> tuple[str, str, object]:
        rng = self.rng
        column = rng.choice(["id", "num", "score", "tag"])
        op = rng.choice(_COMPARABLE_OPS)
        if column == "id":
            value = rng.randrange(0, 150)
        elif column == "num":
            value = rng.randrange(0, 25)
        elif column == "score":
            value = round(rng.uniform(-2.0, 2.0), 3)
        else:
            value = rng.choice(("alpha", "beta", "gamma", "delta"))
        return column, op, value

    def _predicate(self, qualifier: str = "") -> str:
        column, op, value = self._comparison()
        return f"{qualifier}{column} {op} {value!r}"

    def random_select(self) -> tuple[str, str | None, str | None]:
        """``(sql, order_by_column, unlimited_sql)`` — the last is set only for
        ORDER BY + LIMIT queries (tie-at-the-cutoff containment check)."""
        rng = self.rng
        if rng.random() < 0.15:
            return self.random_join()
        table = rng.choice(list(self.columns))
        where = ""
        if rng.random() < 0.85:
            conjuncts = [self._predicate() for _ in range(rng.choice((1, 1, 2, 3)))]
            where = " WHERE " + " AND ".join(conjuncts)
        order_by = None
        order_clause = ""
        with_limit = False
        if rng.random() < 0.5:
            order_by = rng.choice(["id", "num", "score"])
            direction = rng.choice(("ASC", "DESC"))
            order_clause = f" ORDER BY {order_by} {direction}"
            with_limit = rng.random() < 0.6
        # Explicit projections exercise covered (index-only) plans whenever the
        # selected columns land inside a live index's key.
        projection = "*"
        if rng.random() < 0.4:
            selected = rng.sample(["id", "num", "score", "tag"], rng.choice((1, 2, 3)))
            if order_by is not None and order_by not in selected:
                selected.append(order_by)
            projection = ", ".join(selected)
        sql = f"SELECT {projection} FROM {table}{where}{order_clause}"
        unlimited_sql = None
        if with_limit:
            unlimited_sql = sql
            sql += f" LIMIT {rng.randrange(1, 12)}"
        return sql, order_by, unlimited_sql

    def random_join(self) -> tuple[str, str | None, str | None]:
        """A join, shaped like ``random_select``'s answer: ``t_a JOIN t_b`` on
        the key, where every column collides (references are qualified and the
        right side's columns reach the rows as ``t_b.<column>``), or ``t_a JOIN
        t_c`` on ``num = cid``, where none does and references go unqualified
        as often as not.  The read is a ``COUNT(*)``, ``*`` or a projection,
        ordered (with or without a LIMIT) by a joined column or not at all."""
        rng = self.rng
        if rng.random() < 0.5:
            source = "t_a JOIN t_b ON t_a.id = t_b.id"
            columns = ["t_a.id", "t_a.num", "t_a.score", "t_b.num", "t_b.score", "t_b.tag"]
            conjuncts = [self._predicate("t_a."), self._predicate("t_b.")]
        else:
            source = "t_a JOIN t_c ON num = cid"
            columns = [
                rng.choice((column, f"{table}.{column}"))
                for table, names in (("t_a", ("id", "num", "score", "tag")), ("t_c", _T_C))
                for column in names
            ]
            weight = f"{rng.choice(('', 't_c.'))}weight {rng.choice(_COMPARABLE_OPS)} "
            conjuncts = [self._predicate(rng.choice(("", "t_a."))), weight + str(rng.randrange(10))]
        where = " AND ".join(rng.sample(conjuncts, rng.choice((0, 1, 1, 2))))
        where = f" WHERE {where}" if where else ""
        if rng.random() < 0.2:
            return f"SELECT COUNT(*) FROM {source}{where}", None, None
        projection = "*" if rng.random() < 0.3 else ", ".join(rng.sample(columns, 3))
        if rng.random() < 0.4:
            return f"SELECT {projection} FROM {source}{where}", None, None
        order = rng.choice(columns)
        if projection != "*" and order not in projection.split(", "):
            projection += f", {order}"
        # The rows carry a left or unique column bare, a colliding right one renamed.
        order_key = order if order.startswith("t_b.") else order.rpartition(".")[2]
        sql = f"SELECT {projection} FROM {source}{where} ORDER BY {order} {rng.choice(('ASC', 'DESC'))}"
        if rng.random() < 0.6:
            return f"{sql} LIMIT {rng.randrange(1, 12)}", order_key, sql
        return sql, order_key, None

    def check_count(self) -> None:
        """A ``COUNT(*)`` answers one row, the count of every row its WHERE and
        JOIN admit, whatever its ORDER BY — then cut by its LIMIT."""
        rng = self.rng
        if rng.random() < 0.3:
            source, columns = "t_a JOIN t_c ON num = cid", ("id", "num", "score", "weight")
        else:
            source, columns = rng.choice(list(self.columns)), ("id", "num", "score", "tag")
        where = f" WHERE {self._predicate()}" if rng.random() < 0.7 else ""
        sql = f"SELECT COUNT(*) FROM {source}{where}"
        if rng.random() < 0.6:
            sql += f" ORDER BY {rng.choice(columns)} {rng.choice(('ASC', 'DESC'))}"
        limit = rng.choice((None, 0, 1, rng.randrange(1, 12)))
        if limit is not None:
            sql += f" LIMIT {limit}"
        counted = [{"count": len(self.run_reference(f"SELECT * FROM {source}{where}"))}]
        assert self.db.execute(sql).rows == counted[:limit], sql
        assert self.run_reference(sql) == counted[:limit], sql

    # -- the two executions --------------------------------------------------------------

    def run_both(self, sql: str) -> tuple[list[dict], list[dict]]:
        chosen = self.db.execute(sql).rows
        reference = self.run_reference(sql)
        return chosen, reference

    def run_reference(self, sql: str, parameters=()) -> list[dict]:
        reference_plan = self.reference_planner.plan_select(parse(sql))
        rows, _ = reference_plan.run(self.db, list(parameters), None)
        return rows


@pytest.mark.parametrize("program_index", range(PROGRAMS))
@pytest.mark.parametrize("cost_model_name", ["main_memory", "on_disk"], ids=["mm", "disk"])
def test_differential_oracle(program_index: int, cost_model_name: str):
    """Every generated query answers identically with and without indexes."""
    cost_model = CostModel.main_memory() if cost_model_name == "main_memory" else CostModel()
    rng = random.Random(f"{SEED}:{cost_model_name}:{program_index}")
    program = Program(rng, cost_model)
    for _ in range(QUERIES_PER_PROGRAM):
        for _ in range(rng.randrange(0, 4)):
            program.mutate()
        sql, order_by, unlimited_sql = program.random_select()
        chosen, reference = program.run_both(sql)
        unlimited = program.run_reference(unlimited_sql) if unlimited_sql is not None else None
        assert_equivalent(chosen, reference, sql, order_by, unlimited)
        program.check_count()


def test_generated_writes_reach_every_access_path():
    """The write oracle has teeth: over one fixed program the generated
    UPDATEs and DELETEs are located through the primary index, a secondary
    index and a scan, and they do write rows."""
    program = Program(random.Random("writes"), CostModel.main_memory())
    for _ in range(300):
        program.mutate()
    assert {"IndexRange", "SecondaryIndexRange", "SeqScan"} <= set(program.write_paths)
    assert program.rows_written > 100


def test_generated_joins_reach_every_shape():
    """The join generator draws every shape the oracle is meant to face, and
    some join side is read through an index."""
    program = Program(random.Random("joins"), CostModel.main_memory())
    for _ in range(40):
        program.mutate()
    drawn = [program.random_join() for _ in range(300)]
    sqls = [sql for sql, _, _ in drawn]
    assert any("COUNT(*)" in sql for sql in sqls)
    assert any(sql.startswith("SELECT * ") for sql in sqls)
    assert any(key == "t_b.num" and unlimited for _, key, unlimited in drawn)
    assert any(" ON num = cid" in sql and " t_a." not in sql for sql in sqls)
    assert any(
        "IndexRange" in row["node"]
        for sql in sqls
        for row in program.db.execute(f"EXPLAIN {sql}").rows
    )


def test_reference_planner_never_uses_indexes():
    """The oracle's ground truth really is scan-only, even when indexes exist."""
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
    for i in range(50):
        db.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, i % 7))
    db.execute("CREATE INDEX idx_v ON t (v)")
    reference = Planner(db, use_index_paths=False)
    for sql in (
        "SELECT * FROM t WHERE id = 3",
        "SELECT * FROM t WHERE v >= 5",
        "SELECT * FROM t WHERE v = 2 ORDER BY v LIMIT 3",
    ):
        plan = reference.plan_select(parse(sql))
        labels = [row["node"].strip() for row in plan.explain_rows()]
        assert any(label.startswith("SeqScan") for label in labels), labels
        assert not any("IndexRange" in label for label in labels), labels


def test_composite_covering_and_desc_shapes_against_reference():
    """Deterministic battery: the new query shapes answer byte-identically.

    Composite leftmost-prefix probes, covered projections (index-only scans),
    and ``ORDER BY ... DESC LIMIT k`` each get checked against the
    forced-SeqScan reference, and the EXPLAIN labels confirm the intended
    access paths were actually chosen (so the shapes cannot silently
    degenerate into plain scans).
    """
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE t (id integer PRIMARY KEY, num integer, score float, tag text)")
    rng = random.Random(7)
    for i in range(180):
        db.execute(
            "INSERT INTO t (id, num, score, tag) VALUES (?, ?, ?, ?)",
            (
                i,
                rng.randrange(0, 12),
                round(rng.uniform(-2.0, 2.0), 2),
                rng.choice(("alpha", "beta", "gamma")),
            ),
        )
    db.execute("CREATE INDEX idx_ns ON t (num, score)")
    db.execute("CREATE INDEX idx_score ON t (score)")
    reference = Planner(db, use_index_paths=False)
    cases = {
        "SELECT * FROM t WHERE num = 4 AND score >= 0.0": "SecondaryIndexRange",
        "SELECT num, score FROM t WHERE num = 4 AND score >= 0.0": "covering",
        "SELECT * FROM t ORDER BY score DESC LIMIT 8": "order=score desc",
        "SELECT * FROM t WHERE num = 7 ORDER BY score DESC LIMIT 5": "order=score desc",
    }
    for sql, expected_label_part in cases.items():
        labels = [row["node"].strip() for row in db.execute(f"EXPLAIN {sql}").rows]
        assert any(expected_label_part in label for label in labels), (sql, labels)
        chosen = db.execute(sql).rows
        rows, _ = reference.plan_select(parse(sql)).run(db, [], None)
        if "ORDER BY" in sql:
            assert _order_column_values(chosen, "score") == _order_column_values(rows, "score"), sql
        else:
            assert_equivalent(chosen, rows, sql)
