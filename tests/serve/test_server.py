"""End-to-end tests: a ViewServer attached to a live engine view over SQL."""

from __future__ import annotations

import pytest

from repro import Database, HazyEngine
from repro.core.view import view_contents
from repro.exceptions import ViewDefinitionError
from repro.workloads.synth_text import SparseCorpusGenerator


@pytest.fixture
def served_setup():
    db = Database()
    db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    db.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    db.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    db.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    corpus = SparseCorpusGenerator(
        vocabulary_size=250, nonzeros_per_document=10, positive_fraction=0.4, seed=21
    ).generate_list(160)
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
    for doc in corpus[:25]:
        db.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (doc.entity_id, "database" if doc.label == 1 else "other"),
        )
    return db, engine, view, corpus


def word_label(doc):
    return "database" if doc.label == 1 else "other"


def direct_oracle(view):
    """Expected contents from the view's *current* trainer model and features."""
    return view_contents(view.entity_snapshot(), view.trainer.model)


def server_oracle(server):
    entities = [
        (record.entity_id, record.features)
        for shard in server.shards.shards
        for record in shard.maintainer.store.scan_all()
    ]
    return view_contents(entities, server.trainer.model)


def test_sql_writes_flow_through_the_pipeline(served_setup):
    db, engine, view, corpus = served_setup
    server = engine.serve("Labeled_Papers", shards=4)
    try:
        for doc in corpus[25:45]:
            db.execute(
                "INSERT INTO example_papers (id, label) VALUES (?, ?)",
                (doc.entity_id, word_label(doc)),
            )
        db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", (9001, "new paper"))
        server.flush(timeout=30)
        assert server.epoch > 0
        assert server.shards.count() == len(corpus) + 1
        assert server.contents() == server_oracle(server)
        # SQL reads over the view go through the server while attached.
        total = db.execute("SELECT COUNT(*) FROM Labeled_Papers").scalar()
        assert total == len(corpus) + 1
    finally:
        server.close(timeout=30)


def test_sql_update_and_delete_while_serving(served_setup):
    db, engine, view, corpus = served_setup
    server = engine.serve("Labeled_Papers", shards=2)
    try:
        # Flip one example's label, delete another, rewrite an entity.
        db.execute("UPDATE example_papers SET label = 'other' WHERE id = ?", (corpus[0].entity_id,))
        db.execute("DELETE FROM example_papers WHERE id = ?", (corpus[1].entity_id,))
        db.execute("UPDATE papers SET title = 'rewritten abstract' WHERE id = ?", (corpus[2].entity_id,))
        db.execute("DELETE FROM papers WHERE id = ?", (corpus[3].entity_id,))
        server.flush(timeout=30)
        assert server.shards.count() == len(corpus) - 1
        assert server.contents() == server_oracle(server)
    finally:
        server.close(timeout=30)


def test_reads_while_serving(served_setup):
    db, engine, view, corpus = served_setup
    server = engine.serve("Labeled_Papers", shards=4)
    try:
        oracle = server_oracle(server)
        # View-level reads delegate to the server while attached.
        assert view.label_of(corpus[0].entity_id) == oracle[corpus[0].entity_id]
        assert sorted(view.members(1)) == sorted(k for k, v in oracle.items() if v == 1)
        top = server.top_k(5)
        assert len(top) == 5
    finally:
        server.close(timeout=30)


def test_close_replays_entity_churn_in_order(served_setup):
    """An entity inserted then deleted while served must stay deleted after
    close, and repeated updates of one entity must not break the resync."""
    db, engine, view, corpus = served_setup
    server = engine.serve("Labeled_Papers", shards=2)
    db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", (8801, "short lived"))
    server.flush(timeout=30)
    db.execute("DELETE FROM papers WHERE id = ?", (8801,))
    target = corpus[0].entity_id
    db.execute("UPDATE papers SET title = 'first rewrite' WHERE id = ?", (target,))
    db.execute("UPDATE papers SET title = 'second rewrite' WHERE id = ?", (target,))
    server.close(timeout=30)
    assert view.server is None
    assert 8801 not in view.maintainer.contents()  # not resurrected by resync
    assert view.maintainer.store.count() == len(corpus)
    assert view.maintainer.contents() == direct_oracle(view)


def test_double_serve_rejected(served_setup):
    _, engine, _, _ = served_setup
    server = engine.serve("Labeled_Papers")
    try:
        with pytest.raises(ViewDefinitionError):
            engine.serve("Labeled_Papers")
    finally:
        server.close(timeout=30)


def test_close_hands_back_a_consistent_view(served_setup):
    db, engine, view, corpus = served_setup
    server = engine.serve("Labeled_Papers", shards=4)
    for doc in corpus[25:40]:
        db.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (doc.entity_id, word_label(doc)),
        )
    db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", (7777, "late arrival"))
    db.execute("DELETE FROM papers WHERE id = ?", (corpus[5].entity_id,))
    server.close(timeout=30)

    assert view.server is None
    # The direct maintainer caught up with everything the server applied.
    assert view.maintainer.contents() == direct_oracle(view)
    assert view.maintainer.store.count() == len(corpus)  # +1 added, -1 removed
    # Inline triggers are live again: another insert maintains the view directly.
    doc = corpus[41]
    db.execute(
        "INSERT INTO example_papers (id, label) VALUES (?, ?)",
        (doc.entity_id, word_label(doc)),
    )
    assert view.maintainer.contents() == direct_oracle(view)
    # And the view is its own again.
    assert view.server is None


def test_two_served_views_over_one_base_table_stay_connected(served_setup, tmp_path):
    """Serving a second view over the same entities table must not disconnect
    the first, and ``STOP SERVING`` one must leave the other serving."""
    db, engine, view, corpus = served_setup
    db.execute("CREATE TABLE example_other (id integer PRIMARY KEY, label text)")
    db.execute(
        """
        CREATE CLASSIFICATION VIEW Other_Papers KEY id
        ENTITIES FROM Papers KEY id
        LABELS FROM Paper_Area LABEL label
        EXAMPLES FROM Example_Other KEY id LABEL label
        FEATURE FUNCTION tf_bag_of_words
        USING SVM
        """
    )
    other = engine.view("Other_Papers")
    db.execute(f"SERVE VIEW Labeled_Papers WITH (shards = 2, wal = '{tmp_path / 'wal'}')")
    db.execute("SERVE VIEW Other_Papers WITH (shards = 2)")
    first, second = view.server, other.server
    try:
        db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", (9101, "seen by both"))
        first.flush(timeout=30)
        second.flush(timeout=30)
        assert first.shards.count() == second.shards.count() == len(corpus) + 1
        assert first.trigger_diverts.value == second.trigger_diverts.value == 1

        db.execute("STOP SERVING Other_Papers")
        assert other.server is None and view.server is first
        db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", (9102, "one served, one not"))
        db.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (corpus[30].entity_id, word_label(corpus[30])),
        )
        first.flush(timeout=30)
        # Still diverting into its own queue and WAL...
        assert first.trigger_diverts.value == first.wal.stats()["appends_total"] == 3
        assert first.shards.count() == len(corpus) + 2
        assert first.contents() == server_oracle(first)
        # ...while the stopped view maintains itself inline again.
        assert other.maintainer.store.count() == len(corpus) + 2
        assert other.maintainer.contents() == direct_oracle(other)
    finally:
        first.close(timeout=30)
    assert view.maintainer.store.count() == len(corpus) + 2
    assert view.maintainer.contents() == direct_oracle(view)


def test_hand_back_state_is_bounded_by_the_ids_written(served_setup):
    """A long-served CRUD view keeps one hand-back entry per entity id written,
    not one per write — and still hands back the last state of each."""
    db, engine, view, corpus = served_setup
    server = engine.serve("Labeled_Papers", shards=2)
    target = corpus[0].entity_id
    for round_index in range(30):
        db.execute("UPDATE papers SET title = ? WHERE id = ?", (f"rewrite {round_index}", target))
        db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", (8900, "comes and goes"))
        db.execute("DELETE FROM papers WHERE id = ?", (8900,))
    server.flush(timeout=30)
    assert len(server._entity_writes) == 2
    server.close(timeout=30)
    assert 8900 not in view.maintainer.contents()
    assert view.maintainer.store.count() == len(corpus)
    assert view.maintainer.contents() == direct_oracle(view)
    expected = view.feature_function.compute_feature({"id": target, "title": "rewrite 29"})
    assert view.maintainer.store.get(target).features == expected
