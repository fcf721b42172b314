"""Range conjuncts whose bounds cannot be ordered against each other.

``WHERE num > 5 AND num > 'a'`` on an indexed INTEGER column: the planner and
the executor tighten the conjuncts with the one :meth:`KeyRange.tighten`.  At
plan time the range is unknown (default selectivity, exactly as for ``?``
bounds), ``EXPLAIN`` prints a plan, and executing the statement raises the
documented :class:`SQLExecutionError` — the same one the ``?`` spelling
raises — never a raw ``TypeError``.
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.exceptions import SQLExecutionError

ROWS = 20
INDEXES = {
    "single": ("CREATE INDEX ix ON t (num)", ""),
    "composite": ("CREATE INDEX ix ON t (a, num)", "a = 1 AND "),
}
STATEMENTS = {
    "select": "SELECT id FROM t WHERE {where}",
    "update": "UPDATE t SET a = 7 WHERE {where}",
    "delete": "DELETE FROM t WHERE {where}",
    "explain": "EXPLAIN SELECT id FROM t WHERE {where}",
}
SPELLINGS = {
    "literal": ("num > 5 AND num > 'a'", ()),
    "placeholder": ("num > ? AND num > ?", (5, "a")),
}
MESSAGE = "cannot evaluate '>' between a int column value and a str bound"


def build(index: str) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, num INTEGER)")
    db.executemany(
        "INSERT INTO t (id, a, num) VALUES (?, ?, ?)", [(i, i % 2, i) for i in range(ROWS)]
    )
    db.execute(INDEXES[index][0])
    return db


def statement(index: str, kind: str, spelling: str) -> tuple[str, tuple]:
    conjuncts, parameters = SPELLINGS[spelling]
    sql = STATEMENTS[kind].format(where=INDEXES[index][1] + conjuncts)
    return sql, parameters if kind != "explain" else ()


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("kind", sorted(STATEMENTS))
@pytest.mark.parametrize("index", sorted(INDEXES))
def test_incomparable_range_bounds(index, kind, spelling):
    db = build(index)
    before = db.execute("SELECT * FROM t").rows
    sql, parameters = statement(index, kind, spelling)
    if kind == "explain":
        rows = db.execute(sql).rows
        assert rows and rows[-1]["node"].strip().startswith(("SeqScan", "SecondaryIndexRange"))
        return
    with pytest.raises(SQLExecutionError) as raised:
        db.execute(sql, parameters)
    assert str(raised.value) == MESSAGE
    assert db.execute("SELECT * FROM t").rows == before  # a refused write changes nothing


@pytest.mark.parametrize("index", sorted(INDEXES))
def test_incomparable_literals_are_estimated_as_unknown_bounds(index):
    """Literal bounds that cannot be ordered leave the range unknown at plan
    time, so the probe is priced exactly as its ``?`` spelling is.  The read
    is covering, so the index probe wins and its estimate shows."""
    db = build(index)
    where = INDEXES[index][1]
    plans = [
        db.execute(f"EXPLAIN SELECT num FROM t WHERE {where}{SPELLINGS[spelling][0]}").rows
        for spelling in sorted(SPELLINGS)
    ]
    priced = [[(row["estimated_seconds"], row["detail"]) for row in plan] for plan in plans]
    assert priced[0] == priced[1]
    assert "SecondaryIndexRange" in plans[0][-1]["node"]
