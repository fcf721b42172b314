"""Statements refused whatever the plan and whatever the data, in process and
over the wire alike.

* A negative or boolean ``LIMIT`` is a syntax error at parse time.  It used
  to answer by plan: a sort sliced ``[:-3]`` (47 of 50 rows), an
  index-ordered or unordered read nothing, ``LIMIT TRUE`` one row.
* A statement's ``?`` count is checked once, before anything is planned or
  read.  Too few parameters used to pass whenever no row reached the
  unbound conjunct, and extra parameters were silently dropped.
* A ``WITH (...)`` clause names each option once and gives it a literal.  A
  repeated name used to let the last value win (``shards = 2, shards = 5``
  served five shards), and a ``?`` reached the option validator unbound,
  whose message then carried the placeholder's memory address.

Each case runs through ``repro.connect()`` and through a ``repro.net`` client
of the same engine, and must raise the same class with the same text.
"""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import SQLExecutionError, SQLSyntaxError
from repro.net import SQLServer, connect

from tests.net.conftest import TEST_TIMEOUT_S, VIEW_DDL, corpus, create_base_tables

ROWS = 50


@pytest.fixture
def fronts():
    """``{"in_process": connection, "wire": client}`` over one database."""
    conn = repro.connect()
    conn.execute("CREATE TABLE t (id integer PRIMARY KEY, score float, tag text)")
    conn.executemany(
        "INSERT INTO t (id, score, tag) VALUES (?, ?, ?)",
        [(i, (i * 7) % 50 / 10.0, f"tag{i % 4}") for i in range(ROWS)],
    )
    conn.execute("CREATE INDEX ix ON t (score)")
    conn.execute("CREATE TABLE e (id integer PRIMARY KEY, num integer)")
    with SQLServer(conn.engine, admission_timeout_s=TEST_TIMEOUT_S) as server:
        with connect(server.host, server.port, timeout=TEST_TIMEOUT_S) as client:
            yield {"in_process": conn, "wire": client}
    conn.close()


def refusals(fronts, run) -> dict:
    """What ``run(front)`` raised on each front: class, text and diagnostics."""
    raised = {}
    for name, front in fronts.items():
        with pytest.raises(Exception) as excinfo:
            run(front)
        error = excinfo.value
        raised[name] = (
            type(error),
            str(error),
            getattr(error, "position", None),
            getattr(error, "token", None),
        )
    assert raised["in_process"] == raised["wire"]
    return raised["in_process"]


@pytest.mark.parametrize(
    "sql,token",
    [
        ("SELECT id FROM t ORDER BY tag LIMIT -3", "-3"),  # Sort + TopK
        ("SELECT id FROM t ORDER BY score LIMIT -3", "-3"),  # index-ordered
        ("SELECT id FROM t LIMIT -3", "-3"),  # Limit
        ("SELECT id FROM t LIMIT TRUE", "TRUE"),
        ("SELECT id FROM t ORDER BY score LIMIT false", "false"),
    ],
)
def test_negative_or_boolean_limit_is_a_syntax_error(fronts, sql, token):
    kind, text, position, found = refusals(fronts, lambda front: front.execute(sql))
    assert kind is SQLSyntaxError
    assert text.startswith("LIMIT expects a non-negative integer literal")
    assert (position, found) == (sql.rindex(token), token)


def test_limit_zero_stays_legal(fronts):
    for front in fronts.values():
        assert front.execute("SELECT id FROM t ORDER BY score LIMIT 0").fetchall() == []
        assert front.execute("SELECT id FROM t LIMIT 0").fetchall() == []


@pytest.mark.parametrize(
    "sql,parameters,problem",
    [
        # too few, though no row reaches the unbound conjunct
        ("SELECT * FROM e WHERE num = ?", (), "not enough"),
        ("SELECT * FROM e WHERE id = ?", (), "not enough"),
        ("SELECT * FROM t WHERE id = 2000 AND score = ?", (), "not enough"),
        ("SELECT * FROM t WHERE id = 1 AND score = ?", (), "not enough"),
        ("EXPLAIN ANALYZE SELECT * FROM t WHERE score > ?", (), "not enough"),
        ("UPDATE e SET num = ? WHERE id = ?", (1,), "not enough"),
        # too many, each silently dropped before
        ("SELECT * FROM t WHERE id = ?", (1, 2), "too many"),
        ("SELECT COUNT(*) FROM t", (1,), "too many"),
        ("INSERT INTO e (id, num) VALUES (?, ?)", (1, 2, 3), "too many"),
        ("DELETE FROM e WHERE id = ?", (1, 2), "too many"),
        ("EXPLAIN SELECT * FROM t WHERE score > ?", (1.0, 2.0), "too many"),
    ],
)
def test_parameter_count_is_checked_before_any_data_is_read(fronts, sql, parameters, problem):
    kind, text, _, _ = refusals(fronts, lambda front: front.execute(sql, parameters))
    expected = sql.count("?")
    assert kind is SQLExecutionError
    assert text == (
        f"{problem} parameters for placeholders: the statement has {expected}, "
        f"{len(parameters)} were supplied"
    )
    for front in fronts.values():
        assert front.execute("SELECT COUNT(*) FROM e").scalar() == 0


def test_each_executemany_row_is_checked(fronts):
    sql = "INSERT INTO e (id, num) VALUES (?, ?)"
    kind, text, _, _ = refusals(
        fronts, lambda front: front.executemany(sql, [(1, 1, 1)])
    )
    assert (kind, text) == (
        SQLExecutionError,
        "too many parameters for placeholders: the statement has 2, 3 were supplied",
    )
    for front in fronts.values():
        assert front.execute("SELECT COUNT(*) FROM e").scalar() == 0


def test_plain_explain_without_parameters_prints_the_placeholder(fronts):
    sql = "EXPLAIN SELECT * FROM t WHERE score > ?"
    answers = [front.execute(sql).fetchall() for front in fronts.values()]
    assert answers[0] == answers[1]
    assert any("score > ?" in row["node"] for row in answers[0])
    assert fronts["wire"].execute(sql, (1.0,)).fetchall() == answers[0]


@pytest.mark.parametrize(
    "sql,parameters,token,problem",
    [
        (
            "SERVE VIEW labeled_papers WITH (shards = 2, shards = 5)",
            (),
            "shards",
            "option 'shards' is given twice in WITH clause",
        ),
        (
            "CHECKPOINT VIEW labeled_papers TO 'ck' "
            "WITH (incremental = true, INCREMENTAL = false)",
            (),
            "INCREMENTAL",
            "option 'incremental' is given twice in WITH clause",
        ),
        (
            "RESTORE VIEW labeled_papers FROM 'ck' WITH (wal = 'a', wal = 'b')",
            (),
            "wal",
            "option 'wal' is given twice in WITH clause",
        ),
        (  # the same value twice is still two values
            "SERVE VIEW labeled_papers WITH (shards = 4, SHARDS = 4)",
            (),
            "SHARDS",
            "option 'shards' is given twice in WITH clause",
        ),
        (
            "SERVE VIEW labeled_papers WITH (shards = ?)",
            (3,),
            "?",
            "option 'shards' takes a literal, not '?',",
        ),
        (
            "RESTORE VIEW labeled_papers FROM 'ck' WITH (shards = 8, wal = ?)",
            ("wal",),
            "?",
            "option 'wal' takes a literal, not '?',",
        ),
        (
            "CHECKPOINT VIEW labeled_papers TO 'ck' WITH (incremental = true, parent = ?)",
            ("elsewhere",),
            "?",
            "option 'parent' takes a literal, not '?',",
        ),
    ],
)
def test_a_with_clause_takes_each_option_once_as_a_literal(
    fronts, sql, parameters, token, problem
):
    conn = fronts["in_process"]
    create_base_tables(conn, corpus(count=12))
    conn.execute(VIEW_DDL)
    kind, text, position, found = refusals(
        fronts, lambda front: front.execute(sql, parameters)
    )
    assert kind is SQLSyntaxError
    assert (position, found) == (sql.rindex(token), token)
    assert text == f"{problem} at position {position}"
    assert conn.engine.view("labeled_papers").server is None
