"""A view read bound by ``class = x`` or by its key answers that conjunct exactly.

``ViewMembers`` and ``ViewRangeRead`` ask the view's reader for one binary
label's members, and no residual ``Filter`` re-checks ``class = x`` above them:
the node checks, once per statement, that the class it shows satisfies the
bound.  This table holds every such read to its definition — ``SELECT id,
class FROM v`` filtered in Python with :func:`compare_values` — for bounds the
label mapping takes, bounds it refuses, and bounds it maps to a class they do
not equal (``'1'`` or ``1`` on a text-labelled view, where every value maps
to a label), as literals and as ``?`` parameters, on a ``±1``-labelled and a
text-labelled view, unserved and served on 2 shards.

A point read answers its ``id = ?`` the same way, with no ``Filter`` above
it: the bound goes through ``Predicate.bind``, so ``3.0`` finds the stored
``3`` and answers with it, while ``'3'``, ``3.5``, NULL and NaN find nothing.
"""

from __future__ import annotations

import math

import pytest

from repro.core.engine import HazyEngine
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql.plan import compare_values
from repro.exceptions import SchemaError
from repro.workloads.synth_text import SparseCorpusGenerator

#: The view's labels: ``numeric`` stores ``±1``, ``text`` names its classes.
LABELLING = {
    "numeric": ("label integer", "", lambda positive: 1 if positive else -1),
    "text": (
        "label text",
        "LABELS FROM areas LABEL label ",
        lambda positive: "database" if positive else "other",
    ),
}
#: ``class = <literal>`` and the value the literal parses to.
LITERALS = {
    "1": 1,
    "1.0": 1.0,
    "TRUE": True,
    "'1'": "1",
    "NULL": None,
    "-1": -1,
    "7": 7,
    "'database'": "database",
    "'other'": "other",
    "'not_database'": "not_database",
}
#: Every bound as a literal, and the first five bound to ``?`` too.
BOUNDS = [(literal, value, False) for literal, value in LITERALS.items()]
BOUNDS += [("?", value, True) for value in (1, 1.0, True, "1", None)]
READS = {
    "members": ("", ("ViewMembers", "ServedScatterGather")),
    "range": (" AND id >= 8", ("ViewRangeRead", "ServedRangeScan")),
}
STATES = {"unserved": 0, "2 shards": 1}
#: ``id = ?`` bound to each value, and the stored keys it finds.
KEY_BOUNDS = [(3, [3]), (3.0, [3]), ("3", []), (3.5, []), (None, []), (float("nan"), [])]


def build(labelling: str) -> Database:
    """40 documents under view ``v``, 30 of them training examples: the model
    puts 33 in one class and 7 in the other."""
    column, labels_clause, label_of = LABELLING[labelling]
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE docs (id integer PRIMARY KEY, title text)")
    db.execute(f"CREATE TABLE examples (id integer PRIMARY KEY, {column})")
    if labels_clause:
        db.execute("CREATE TABLE areas (label text PRIMARY KEY)")
        db.execute("INSERT INTO areas (label) VALUES ('database'), ('other')")
    documents = SparseCorpusGenerator(
        vocabulary_size=50, nonzeros_per_document=10, positive_fraction=0.5, seed=2
    ).generate_list(40)
    db.executemany(
        "INSERT INTO docs (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    HazyEngine(db)
    db.execute(
        "CREATE CLASSIFICATION VIEW v KEY id ENTITIES FROM docs KEY id "
        f"{labels_clause}EXAMPLES FROM examples KEY id LABEL label "
        "FEATURE FUNCTION tf_bag_of_words USING SVM"
    )
    db.executemany(
        "INSERT INTO examples (id, label) VALUES (?, ?)",
        [(doc.entity_id, label_of(doc.label == 1)) for doc in documents[:30]],
    )
    return db


@pytest.fixture(scope="module", params=list(LABELLING))
def view_db(request):
    db = build(request.param)
    yield request.param, db
    if db.catalog.classification_view("v").reader().served:
        db.execute("STOP SERVING v")


def _serve(db: Database, state: str) -> None:
    """Serve ``v`` on 2 shards, or stop serving it, as ``state`` asks."""
    if STATES[state] != db.catalog.classification_view("v").reader().served:
        db.execute("SERVE VIEW v WITH (shards = 2)" if STATES[state] else "STOP SERVING v")


def _typed(rows) -> list[tuple]:
    """Rows as ``(id, class, type of class)``, by id: ``1 == True`` is not enough."""
    return sorted((row["id"], row["class"], type(row["class"])) for row in rows)


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("read", READS)
@pytest.mark.parametrize("bound", BOUNDS, ids=lambda b: f"{b[0]}={b[1]!r}" if b[2] else b[0])
def test_a_class_read_equals_the_filtered_view(view_db, state, read, bound):
    labelling, db = view_db
    _serve(db, state)
    literal, value, placeholder = bound
    suffix, nodes = READS[read]
    sql = f"SELECT id, class FROM v WHERE class = {literal}{suffix}"
    parameters = [value] if placeholder else None

    plan = [row["node"].strip() for row in db.execute(f"EXPLAIN {sql}", parameters).rows]
    access = nodes[STATES[state]]
    assert plan[-1].startswith(f"{access}(v, class = {literal}")
    assert not any(node.startswith("Filter(class") for node in plan)

    expected = [
        row
        for row in db.execute("SELECT id, class FROM v").rows
        if compare_values(row["class"], "=", value) and (not suffix or row["id"] >= 8)
    ]
    assert _typed(db.execute(sql, parameters).rows) == _typed(expected), labelling


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("bound", KEY_BOUNDS, ids=lambda bound: repr(bound[0]))
def test_a_point_read_equals_the_filtered_view(view_db, state, bound):
    labelling, db = view_db
    _serve(db, state)
    value, found = bound
    sql = "SELECT id, class FROM v WHERE id = ?"

    plan = [row["node"].strip() for row in db.execute(f"EXPLAIN {sql}", [value]).rows]
    access = ("ViewPointRead", "ServedPointRead")[STATES[state]]
    assert plan == ["Project(id, class)", f"{access}(v.id = ?)"]

    expected = [
        row
        for row in db.execute("SELECT id, class FROM v").rows
        if compare_values(row["id"], "=", value)
    ]
    answer = db.execute(sql, [value]).rows
    assert _typed(answer) == _typed(expected), labelling
    assert [(row["id"], type(row["id"])) for row in answer] == [(key, int) for key in found]
    classes = db.execute("SELECT class FROM v WHERE id = ?", [value]).rows
    assert classes == [{"class": row["class"]} for row in answer]


@pytest.mark.parametrize("state", STATES)
def test_a_nan_key_is_refused(state):
    """A REAL key column refuses a NaN as it refuses NULL, on INSERT and on
    UPDATE: no key equals a NaN under ``=``, so a stored one would be an
    entity no point read reaches.  ``id = NaN`` then finds nothing."""
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE docs (id float PRIMARY KEY, title text)")
    db.execute("CREATE TABLE examples (id float PRIMARY KEY, label integer)")
    db.executemany("INSERT INTO docs (id, title) VALUES (?, ?)", [(1.5, "b c d"), (2.5, "x y")])
    HazyEngine(db)
    db.execute(
        "CREATE CLASSIFICATION VIEW v KEY id ENTITIES FROM docs KEY id "
        "EXAMPLES FROM examples KEY id LABEL label "
        "FEATURE FUNCTION tf_bag_of_words USING SVM"
    )
    db.executemany("INSERT INTO examples (id, label) VALUES (?, ?)", [(1.5, 1), (2.5, -1)])
    _serve(db, state)
    try:
        for key in (float("nan"), math.nan):
            with pytest.raises(SchemaError, match="may not be NaN"):
                db.execute("INSERT INTO docs (id, title) VALUES (?, 'a b c')", [key])
        with pytest.raises(SchemaError, match="may not be NaN"):
            db.execute("UPDATE docs SET id = ? WHERE id = 1.5", [math.nan])
        with pytest.raises(SchemaError, match="may not be NaN"):
            db.execute("INSERT INTO examples (id, label) VALUES (?, 1)", [math.nan])
        assert sorted(row["id"] for row in db.execute("SELECT id FROM v").rows) == [1.5, 2.5]
        assert db.execute("SELECT id, class FROM v WHERE id = ?", [math.nan]).rows == []
        assert len(db.execute("SELECT id, class FROM v WHERE id = ?", [1.5]).rows) == 1
    finally:
        _serve(db, "unserved")


def test_both_classes_have_members(view_db):
    """An empty answer is then the check's doing, never an empty class."""
    _, db = view_db
    view = db.catalog.classification_view("v")
    classes = {row["class"] for row in db.execute("SELECT id, class FROM v").rows}
    assert classes == {view.from_binary_label(1), view.from_binary_label(-1)}
