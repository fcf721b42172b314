"""Trigger-driven maintenance on SQL ``UPDATE`` / ``DELETE``.

The seed engine only maintained views on ``INSERT`` (plus example deletion);
these tests pin down the full CRUD story: ordinary SQL ``UPDATE`` and
``DELETE`` statements against *both* the entity table and the example table
must leave the classification view consistent with the declarative oracle
(:func:`repro.core.view.view_contents`) over the current entities and model.
"""

from __future__ import annotations

import pytest

from repro import Database, HazyEngine
from repro.core.view import view_contents
from repro.workloads.synth_text import SparseCorpusGenerator


@pytest.fixture
def maintained_view():
    db = Database()
    db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    db.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    db.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    db.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    corpus = SparseCorpusGenerator(
        vocabulary_size=200, nonzeros_per_document=10, positive_fraction=0.4, seed=33
    ).generate_list(80)
    db.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in corpus],
    )
    engine = HazyEngine(db, architecture="mainmemory", strategy="hazy", approach="eager")
    db.execute(
        """
        CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
        ENTITIES FROM Papers KEY id
        LABELS FROM Paper_Area LABEL label
        EXAMPLES FROM Example_Papers KEY id LABEL label
        FEATURE FUNCTION tf_bag_of_words
        USING SVM
        """
    )
    view = engine.view("Labeled_Papers")
    for doc in corpus[:20]:
        db.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (doc.entity_id, "database" if doc.label == 1 else "other"),
        )
    return db, view, corpus


def assert_consistent(view):
    """The maintained view equals the oracle over its current entities/model."""
    oracle = view_contents(view.entity_snapshot(), view.trainer.model)
    assert view.maintainer.contents() == oracle


def test_entity_update_refeaturizes_the_row(maintained_view):
    db, view, corpus = maintained_view
    target = corpus[0].entity_id
    before = view.maintainer.store.get(target).features
    db.execute(
        "UPDATE papers SET title = ? WHERE id = ?",
        ("database systems query optimization storage indexing", target),
    )
    after = view.maintainer.store.get(target).features
    assert after != before  # the stored feature vector tracked the new text
    assert view.maintainer.store.count() == len(corpus)
    assert_consistent(view)


def test_entity_delete_removes_it_from_the_view(maintained_view):
    db, view, corpus = maintained_view
    target = corpus[5].entity_id
    rowcount = db.execute("DELETE FROM papers WHERE id = ?", (target,)).rowcount
    assert rowcount == 1
    assert view.maintainer.store.count() == len(corpus) - 1
    assert target not in view.maintainer.contents()
    assert target not in view.members(1) and target not in view.members(-1)
    # SQL over the view agrees.
    total = db.execute("SELECT COUNT(*) FROM Labeled_Papers").scalar()
    assert total == len(corpus) - 1
    assert_consistent(view)


def test_entity_delete_with_predicate_removes_many(maintained_view):
    db, view, corpus = maintained_view
    victims = [doc.entity_id for doc in corpus if doc.entity_id < 10]
    rowcount = db.execute("DELETE FROM papers WHERE id < 10").rowcount
    assert rowcount == len(victims)
    contents = view.maintainer.contents()
    assert all(victim not in contents for victim in victims)
    assert_consistent(view)


def test_example_update_flips_the_training_signal(maintained_view):
    db, view, corpus = maintained_view
    target = corpus[0].entity_id
    examples_before = len(view._examples)
    db.execute("UPDATE example_papers SET label = 'other' WHERE id = ?", (target,))
    assert len(view._examples) == examples_before  # replaced, not duplicated
    flipped = [ex for ex in view._examples if ex.entity_id == target]
    assert flipped and flipped[0].label == -1
    assert_consistent(view)


def test_example_delete_retrains(maintained_view):
    db, view, corpus = maintained_view
    target = corpus[1].entity_id
    examples_before = len(view._examples)
    db.execute("DELETE FROM example_papers WHERE id = ?", (target,))
    assert len(view._examples) == examples_before - 1
    assert all(ex.entity_id != target for ex in view._examples)
    assert_consistent(view)


def test_mixed_crud_sequence_stays_consistent(maintained_view):
    db, view, corpus = maintained_view
    db.execute("UPDATE papers SET title = 'storage engines' WHERE id = ?", (corpus[2].entity_id,))
    db.execute("DELETE FROM papers WHERE id = ?", (corpus[3].entity_id,))
    db.execute(
        "INSERT INTO papers (id, title) VALUES (?, ?)", (5001, "learned index structures")
    )
    db.execute("UPDATE example_papers SET label = 'other' WHERE id = ?", (corpus[4].entity_id,))
    db.execute("DELETE FROM example_papers WHERE id = ?", (corpus[6].entity_id,))
    db.execute("INSERT INTO example_papers (id, label) VALUES (?, ?)", (5001, "database"))
    assert view.maintainer.store.count() == len(corpus)  # -1 deleted, +1 inserted
    assert_consistent(view)
