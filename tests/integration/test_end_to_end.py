"""Integration tests spanning the SQL layer, the engine, and the workloads."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import HazyEngine
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.learn.metrics import accuracy, precision_recall
from repro.workloads import dblife_like, forest_like, interleaved_trace
from repro.workloads.synth_text import SparseCorpusGenerator


def paper_portal_database(count: int = 120, seed: int = 17):
    """The running example of the paper: a Web portal of papers to classify."""
    db = Database()
    db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    db.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    db.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    db.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    generator = SparseCorpusGenerator(
        vocabulary_size=400, nonzeros_per_document=10, positive_fraction=0.35, seed=seed
    )
    documents = generator.generate_list(count)
    db.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    return db, documents


VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW labeled_papers KEY id "
    "ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label "
    "EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)


class TestPaperPortalScenario:
    @pytest.mark.parametrize(
        "architecture,strategy,approach",
        [
            ("mainmemory", "hazy", "eager"),
            ("mainmemory", "naive", "eager"),
            ("ondisk", "hazy", "eager"),
            ("hybrid", "hazy", "lazy"),
            ("mainmemory", "hazy", "lazy"),
        ],
    )
    def test_feedback_loop_improves_and_stays_consistent(self, architecture, strategy, approach):
        db, documents = paper_portal_database()
        engine = HazyEngine(db, architecture=architecture, strategy=strategy, approach=approach)
        db.execute(VIEW_DDL)
        view = engine.view("labeled_papers")

        rng = random.Random(5)
        labeled = rng.sample(documents, 80)
        for doc in labeled:
            db.execute(
                "INSERT INTO example_papers (id, label) VALUES (?, ?)",
                (doc.entity_id, "database" if doc.label == 1 else "other"),
            )

        # The view stays consistent with its own model on every entity.
        for doc in documents:
            features = view.maintainer.store.get(doc.entity_id).features
            assert view.label_of(doc.entity_id) == view.model.predict(features)

        # And the learned labels beat the majority-class baseline.
        predicted = [view.label_of(doc.entity_id) for doc in documents]
        actual = [doc.label for doc in documents]
        majority = max(actual.count(1), actual.count(-1)) / len(actual)
        assert accuracy(predicted, actual) > majority - 0.05

    def test_sql_count_matches_python_api(self):
        db, documents = paper_portal_database(80)
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("labeled_papers")
        for doc in documents[:40]:
            view.insert_example(doc.entity_id, "database" if doc.label == 1 else "other")
        sql_count = db.execute(
            "SELECT COUNT(*) FROM labeled_papers WHERE class = 'database'"
        ).scalar()
        assert sql_count == view.count_members(1)

    def test_two_views_over_the_same_entities(self):
        db, documents = paper_portal_database(60)
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        db.execute("CREATE TABLE example_papers2 (id integer PRIMARY KEY, label text)")
        db.execute(
            "CREATE CLASSIFICATION VIEW labeled_papers2 KEY id "
            "ENTITIES FROM papers KEY id "
            "LABELS FROM paper_area LABEL label "
            "EXAMPLES FROM example_papers2 KEY id LABEL label "
            "FEATURE FUNCTION tf_idf_bag_of_words"
        )
        first = engine.view("labeled_papers")
        second = engine.view("labeled_papers2")
        first.insert_example(documents[0].entity_id, "database")
        second.insert_example(documents[1].entity_id, "other")
        assert first.model.version == 1
        assert second.model.version == 1
        assert db.execute("SELECT COUNT(*) FROM labeled_papers2").scalar() == 60

    def test_interleaved_updates_and_reads(self):
        dataset = dblife_like(scale=0.1, seed=3)
        db = Database()
        db.execute("CREATE TABLE docs (id integer PRIMARY KEY, body text)")
        db.execute("CREATE TABLE doc_examples (id integer PRIMARY KEY, label integer)")
        # Register entities directly with raw text equal to term indices.
        for entity_id, features in dataset.entities:
            text = " ".join(f"term{i}" for i in features.indices())
            db.execute("INSERT INTO docs (id, body) VALUES (?, ?)", (entity_id, text))
        engine = HazyEngine(db, architecture="mainmemory", strategy="hazy", approach="eager")
        db.execute(
            "CREATE CLASSIFICATION VIEW labeled_docs KEY id "
            "ENTITIES FROM docs KEY id "
            "EXAMPLES FROM doc_examples KEY id LABEL label "
            "FEATURE FUNCTION tf_bag_of_words"
        )
        view = engine.view("labeled_docs")
        seen_example_ids = set()
        for kind, payload in interleaved_trace(dataset, updates=30, reads_per_update=3, seed=1):
            if kind == "update":
                if payload.entity_id in seen_example_ids:
                    continue
                seen_example_ids.add(payload.entity_id)
                db.execute(
                    "INSERT INTO doc_examples (id, label) VALUES (?, ?)",
                    (payload.entity_id, payload.label),
                )
            else:
                assert view.label_of(payload) in (-1, 1)
        assert view.maintainer.stats.updates == len(seen_example_ids)


class TestDenseWorkloadThroughEngine:
    def test_forest_like_dense_view(self):
        dataset = forest_like(scale=0.05, seed=2)
        db = Database(cost_model=CostModel.main_memory())
        db.execute("CREATE TABLE measurements (id integer PRIMARY KEY, " +
                   ", ".join(f"f{i} float" for i in range(54)) + ")")
        db.execute("CREATE TABLE measurement_examples (id integer PRIMARY KEY, label integer)")
        for entity_id, features in dataset.entities:
            columns = ["id"] + [f"f{i}" for i in range(54)]
            values = [entity_id] + features.to_dense(54).tolist()
            placeholders = ", ".join("?" for _ in columns)
            db.execute(
                f"INSERT INTO measurements ({', '.join(columns)}) VALUES ({placeholders})",
                values,
            )
        engine = HazyEngine(db, architecture="mainmemory", strategy="hazy", approach="eager")
        engine.registry.register(
            "dense54",
            lambda: __import__("repro.features", fromlist=["DenseColumnsFeature"]).DenseColumnsFeature(
                columns=tuple(f"f{i}" for i in range(54)), rescale=False
            ),
        )
        db.execute(
            "CREATE CLASSIFICATION VIEW labeled_measurements KEY id "
            "ENTITIES FROM measurements KEY id "
            "EXAMPLES FROM measurement_examples KEY id LABEL label "
            "FEATURE FUNCTION dense54 USING SVM"
        )
        view = engine.view("labeled_measurements")
        for entity_id, _ in dataset.entities[:100]:
            view.insert_example(entity_id, dataset.labels[entity_id])
        predicted = [view.label_of(entity_id) for entity_id, _ in dataset.entities]
        actual = [dataset.labels[entity_id] for entity_id, _ in dataset.entities]
        precision, recall = precision_recall(predicted, actual)
        assert accuracy(predicted, actual) > 0.5
        assert 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0
