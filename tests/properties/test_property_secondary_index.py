"""Property-based invariants for secondary B+-tree index maintenance.

After *any* interleaving of INSERT/UPDATE/DELETE — with CREATE INDEX and
DROP INDEX landing mid-sequence, over one column or two in either order —
every live secondary index must agree exactly with a full table scan: each
(key, row) the scan sees has exactly one index entry (no missing entries),
and each index entry resolves to a live heap row carrying that key (no
ghosts).  A row NULL in any key column must never be indexed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.costmodel import CostModel
from repro.db.database import Database

#: One random mutation: (kind, key-ish int, value-ish int).
operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "update", "delete", "create_index", "drop_index"]
        ),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-5, max_value=5),
    ),
    min_size=1,
    max_size=60,
)


#: The keys ``create_index`` draws from: one column, or two in either order.
KEYS = ("v", "w", "v, w", "w, v")


def _index_entries(index) -> list[tuple[object, object]]:
    """Every (key, rid) pair currently in the tree."""
    return list(index.tree.items())


def check_index_agrees_with_scan(table) -> None:
    """The no-ghost / no-missing-entry invariant for every live index."""
    scan = {rid: dict(row) for rid, row in table.heap.scan()}
    for index in table.secondary_indexes.values():
        entries = _index_entries(index)
        # No ghosts: every entry points at a live row still carrying the key.
        for key, rid in entries:
            assert rid in scan, f"{index.name}: ghost entry {key!r} -> {rid}"
            assert index.key_of(scan[rid]) == key, (
                f"{index.name}: entry {key!r} -> {rid} but row has "
                f"{index.key_of(scan[rid])!r}"
            )
        # No missing or duplicated entries: one entry per row with no NULL
        # key component.
        keys = {rid: index.key_of(row) for rid, row in scan.items()}
        expected = sorted((key, rid) for rid, key in keys.items() if key is not None)
        assert all(
            (key is None) == any(row[column] is None for column in index.columns)
            for key, row in zip(keys.values(), scan.values())
        )
        assert sorted(entries) == expected, f"{index.name}: entries diverge from scan"
        assert len(index.tree) == len(expected)
        index.tree.check_invariants()


@settings(max_examples=60, deadline=None)
@given(operations, st.booleans())
def test_indexes_agree_with_scan_after_any_interleaving(ops, nullable_values):
    """Index contents == scan contents after every step of a random history."""
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer, w integer)")
    table = db.catalog.table("t")
    next_index = 0
    live: list[str] = []
    for kind, key, value in ops:
        stored = None if (nullable_values and value == 0) else value
        if kind == "insert":
            if table.try_get_by_key(key) is None:
                db.execute(
                    "INSERT INTO t (id, v, w) VALUES (?, ?, ?)", (key, stored, -value)
                )
        elif kind == "update":
            if table.try_get_by_key(key) is not None:
                db.execute("UPDATE t SET v = ?, w = ? WHERE id = ?", (stored, value, key))
        elif kind == "delete":
            db.execute("DELETE FROM t WHERE id = ?", (key,))
        elif kind == "create_index":
            name = f"idx_{next_index}"
            next_index += 1
            db.execute(f"CREATE INDEX {name} ON t ({KEYS[key % len(KEYS)]})")
            live.append(name)
        elif live:  # drop_index, only when one exists
            db.execute(f"DROP INDEX {live.pop(key % len(live))}")
        check_index_agrees_with_scan(table)
    # Dropped indexes must be gone from table and catalog alike.
    assert {index.name for index in table.secondary_indexes.values()} == set(live)
    for name in (f"idx_{number}" for number in range(next_index)):
        assert db.catalog.has_index(name) == (name in live), name


@settings(max_examples=30, deadline=None)
@given(operations)
def test_index_answers_match_filter_after_churn(ops):
    """A range query through the index equals the scan answer after churn."""
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer, w integer)")
    db.execute("CREATE INDEX idx_v ON t (v)")
    table = db.catalog.table("t")
    for kind, key, value in ops:
        if kind in ("insert", "create_index"):
            if table.try_get_by_key(key) is None:
                db.execute(
                    "INSERT INTO t (id, v, w) VALUES (?, ?, ?)", (key, value, -value)
                )
        elif kind == "update":
            if table.try_get_by_key(key) is not None:
                db.execute("UPDATE t SET v = ? WHERE id = ?", (value + 1, key))
        elif kind in ("delete", "drop_index"):
            db.execute("DELETE FROM t WHERE id = ?", (key,))
    expected = sorted(
        row["id"] for row in table.scan() if row["v"] is not None and -2 <= row["v"] <= 3
    )
    got = db.execute(
        "SELECT id FROM t WHERE v >= -2 AND v <= 3 ORDER BY id"
    ).rows
    assert [row["id"] for row in got] == expected
