"""A view's negative class shows as the LABELS table's other value.

A LABELS table's first row names the class that means +1; when the table
lists exactly two distinct values, -1 shows as the other one, so ``SELECT id,
class`` shows the two values the examples are labelled with and ``class =
'other'`` finds the negative members.  Any other LABELS table keeps
``not_<positive>``.  The same holds unserved, served on 2 shards, and on a view
restored from a checkpoint, which reads its definition's LABELS table again.
"""

from __future__ import annotations

import pytest

from repro.core.engine import HazyEngine
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.workloads.synth_text import SparseCorpusGenerator

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW v KEY id ENTITIES FROM docs KEY id "
    "LABELS FROM areas LABEL label EXAMPLES FROM examples KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)


def base_tables(labels) -> Database:
    """40 documents, 30 of them examples labelled ``database`` / ``other``,
    beside the LABELS table ``areas`` holding ``labels``."""
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE docs (id integer PRIMARY KEY, title text)")
    db.execute("CREATE TABLE examples (id integer PRIMARY KEY, label text)")
    db.execute("CREATE TABLE areas (label text)")
    db.executemany("INSERT INTO areas (label) VALUES (?)", [(label,) for label in labels])
    documents = SparseCorpusGenerator(
        vocabulary_size=50, nonzeros_per_document=10, positive_fraction=0.5, seed=2
    ).generate_list(40)
    db.executemany(
        "INSERT INTO docs (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    db.executemany(
        "INSERT INTO examples (id, label) VALUES (?, ?)",
        [(doc.entity_id, "database" if doc.label == 1 else "other") for doc in documents[:30]],
    )
    HazyEngine(db)
    return db


def view_db(labels, state: str, tmp_path) -> Database:
    """The view ``v`` over :func:`base_tables`, in ``state``."""
    db = base_tables(labels)
    db.execute(VIEW_DDL)
    if state == "unserved":
        return db
    db.execute("SERVE VIEW v WITH (shards = 2)")
    if state == "2 shards":
        return db
    db.execute(f"CHECKPOINT VIEW v TO '{tmp_path / 'v'}'")
    db.execute("STOP SERVING v")
    restored = base_tables(labels)
    restored.execute(f"RESTORE VIEW v FROM '{tmp_path / 'v'}'")
    return restored


def shown(db: Database) -> dict:
    return {row["id"]: row["class"] for row in db.execute("SELECT id, class FROM v").rows}


@pytest.mark.parametrize("state", ["unserved", "2 shards", "restored"])
@pytest.mark.parametrize("labels", [("database", "other"), ("database", "other", "database")])
def test_two_labels_show_both(labels, state, tmp_path):
    db = view_db(labels, state, tmp_path)
    classes = shown(db)
    assert set(classes.values()) == {"database", "other"}, state
    others = sorted(key for key, value in classes.items() if value == "other")
    members = db.execute("SELECT id FROM v WHERE class = 'other'").rows
    assert sorted(row["id"] for row in members) == others
    counted = db.execute("SELECT COUNT(*) FROM v WHERE class = 'other'").rows
    assert counted == [{"count": len(others)}]
    assert db.execute("SELECT id FROM v WHERE class = 'not_database'").rows == []
    point = db.execute("SELECT class FROM v WHERE id = ?", [others[0]]).rows
    assert point == [{"class": "other"}]
    if state != "unserved":
        db.execute("STOP SERVING v")


@pytest.mark.parametrize("labels", [("database",), ("database", "other", "misc")])
def test_other_labels_tables_keep_not_positive(labels, tmp_path):
    classes = shown(view_db(labels, "unserved", tmp_path))
    assert set(classes.values()) == {"database", "not_database"}
