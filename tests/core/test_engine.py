"""End-to-end tests of the HazyEngine through the SQL interface (paper §2.1)."""

from __future__ import annotations

import pytest

from repro.core.engine import HazyEngine
from repro.core.view import ClassificationViewDefinition
from repro.db.database import Database
from repro.exceptions import ConfigurationError, MaintenanceError, ViewDefinitionError
from repro.workloads.synth_text import SparseCorpusGenerator

VIEW_DDL = """
CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
ENTITIES FROM Papers KEY id
LABELS FROM Paper_Area LABEL label
EXAMPLES FROM Example_Papers KEY id LABEL label
FEATURE FUNCTION tf_bag_of_words
USING SVM
"""


def build_database(paper_count: int = 80, seed: int = 13) -> tuple[Database, list]:
    """A database with papers, a labels table, and an (empty) examples table."""
    db = Database()
    db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    db.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    db.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    db.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    generator = SparseCorpusGenerator(
        vocabulary_size=250, nonzeros_per_document=8, positive_fraction=0.4, seed=seed
    )
    documents = generator.generate_list(paper_count)
    db.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    return db, documents


class TestEngineConfiguration:
    def test_invalid_architecture(self):
        with pytest.raises(ConfigurationError):
            HazyEngine(Database(), architecture="tape")

    def test_invalid_strategy_and_approach(self):
        with pytest.raises(ConfigurationError):
            HazyEngine(Database(), strategy="psychic")
        with pytest.raises(ConfigurationError):
            HazyEngine(Database(), approach="sometimes")

    def test_unknown_view_lookup(self):
        engine = HazyEngine(Database())
        with pytest.raises(ViewDefinitionError):
            engine.view("missing")


class TestCreateClassificationView:
    def test_ddl_creates_and_registers_view(self):
        db, _ = build_database()
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        assert "labeled_papers" in engine.views
        assert db.catalog.object_kind("Labeled_Papers") == "classification_view"

    def test_duplicate_view_rejected(self):
        db, _ = build_database()
        HazyEngine(db)
        db.execute(VIEW_DDL)
        with pytest.raises(ViewDefinitionError):
            db.execute(VIEW_DDL)

    def test_view_is_populated_with_every_entity(self):
        db, documents = build_database()
        HazyEngine(db)
        db.execute(VIEW_DDL)
        assert db.execute("SELECT COUNT(*) FROM Labeled_Papers").scalar() == len(documents)

    def test_missing_entity_key_column_rejected(self):
        db, _ = build_database()
        engine = HazyEngine(db)
        definition = ClassificationViewDefinition(
            view_name="v",
            entities_table="papers",
            entities_key="missing_column",
            examples_table="example_papers",
            examples_key="id",
            examples_label="label",
            feature_function="tf_bag_of_words",
        )
        with pytest.raises(ViewDefinitionError):
            engine.create_view(definition)

    @pytest.mark.parametrize("architecture", ["mainmemory", "ondisk", "hybrid"])
    def test_all_architectures_work_through_sql(self, architecture):
        db, documents = build_database(paper_count=50)
        HazyEngine(db, architecture=architecture)
        db.execute(VIEW_DDL)
        db.execute("INSERT INTO example_papers (id, label) VALUES (?, ?)", (documents[0].entity_id, "database"))
        rows = db.execute("SELECT * FROM Labeled_Papers WHERE class = 'database'").rows
        assert isinstance(rows, list)


class TestIncrementalMaintenanceThroughSQL:
    def test_training_examples_update_the_model(self):
        db, documents = build_database()
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("Labeled_Papers")
        version_before = view.model.version
        positives = [doc for doc in documents if doc.label == 1][:5]
        negatives = [doc for doc in documents if doc.label == -1][:5]
        for doc in positives:
            db.execute(
                "INSERT INTO example_papers (id, label) VALUES (?, 'database')", (doc.entity_id,)
            )
        for doc in negatives:
            db.execute(
                "INSERT INTO example_papers (id, label) VALUES (?, 'other')", (doc.entity_id,)
            )
        assert view.model.version == version_before + 10
        assert view.maintainer.stats.updates == 10

    def test_view_labels_track_the_current_model(self):
        db, documents = build_database(paper_count=60)
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("Labeled_Papers")
        for doc in documents[:30]:
            label = "database" if doc.label == 1 else "other"
            view.insert_example(doc.entity_id, label)
        for doc in documents[:20]:
            expected = view.model.predict(view.maintainer.store.get(doc.entity_id).features)
            assert view.label_of(doc.entity_id) == expected

    def test_members_and_count(self):
        db, documents = build_database(paper_count=60)
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("Labeled_Papers")
        for doc in documents[:20]:
            view.insert_example(doc.entity_id, "database" if doc.label == 1 else "other")
        members = view.members(1)
        assert view.count_members(1) == len(members)
        assert set(members).issubset({doc.entity_id for doc in documents})

    def test_new_entity_via_sql_insert_is_classified(self):
        db, documents = build_database(paper_count=60)
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("Labeled_Papers")
        for doc in documents[:20]:
            view.insert_example(doc.entity_id, "database" if doc.label == 1 else "other")
        db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", (9999, "database systems query processing"))
        assert view.label_of(9999) in (1, -1)
        assert db.execute("SELECT COUNT(*) FROM Labeled_Papers").scalar() == 61

    def test_example_for_unknown_entity_rejected(self):
        db, _ = build_database()
        HazyEngine(db)
        db.execute(VIEW_DDL)
        with pytest.raises(MaintenanceError):
            db.execute("INSERT INTO example_papers (id, label) VALUES (123456, 'database')")

    def test_example_delete_triggers_retraining(self):
        db, documents = build_database(paper_count=40)
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("Labeled_Papers")
        for doc in documents[:10]:
            view.insert_example(doc.entity_id, "database" if doc.label == 1 else "other")
        version_after_inserts = view.model.version
        db.execute("DELETE FROM example_papers WHERE id = ?", (documents[0].entity_id,))
        # Retraining from scratch resets the trainer and replays 9 examples.
        assert view.model.version == 9
        assert version_after_inserts == 10

    def test_sql_query_over_view_with_label_values(self):
        db, documents = build_database(paper_count=50)
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("Labeled_Papers")
        for doc in documents[:25]:
            view.insert_example(doc.entity_id, "database" if doc.label == 1 else "other")
        db_count = db.execute(
            "SELECT COUNT(*) FROM Labeled_Papers WHERE class = 'database'"
        ).scalar()
        assert db_count == view.count_members(1)

    def test_positive_label_resolved_from_labels_table(self):
        db, _ = build_database()
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("Labeled_Papers")
        assert view.positive_label == "database"
        assert view.to_binary_label("database") == 1
        assert view.to_binary_label("other") == -1

    def test_numeric_labels_accepted_without_labels_table(self):
        db, documents = build_database()
        engine = HazyEngine(db)
        db.execute("CREATE TABLE examples2 (id integer PRIMARY KEY, label integer)")
        definition = ClassificationViewDefinition(
            view_name="numeric_view",
            entities_table="papers",
            entities_key="id",
            examples_table="examples2",
            examples_key="id",
            examples_label="label",
            feature_function="tf_bag_of_words",
        )
        view = engine.create_view(definition)
        view.insert_example(documents[0].entity_id, 1)
        view.insert_example(documents[1].entity_id, -1)
        assert view.model.version == 2

    def test_unmappable_label_raises(self):
        db, documents = build_database()
        engine = HazyEngine(db)
        db.execute("CREATE TABLE examples3 (id integer PRIMARY KEY, label text)")
        definition = ClassificationViewDefinition(
            view_name="nolabels_view",
            entities_table="papers",
            entities_key="id",
            examples_table="examples3",
            examples_key="id",
            examples_label="label",
            feature_function="tf_bag_of_words",
        )
        view = engine.create_view(definition)
        with pytest.raises(ConfigurationError):
            view.insert_example(documents[0].entity_id, "mystery")

    def test_retrain_rebuilds_consistent_view(self):
        db, documents = build_database(paper_count=50)
        engine = HazyEngine(db)
        db.execute(VIEW_DDL)
        view = engine.view("Labeled_Papers")
        for doc in documents[:20]:
            view.insert_example(doc.entity_id, "database" if doc.label == 1 else "other")
        view.retrain()
        for doc in documents[:10]:
            features = view.maintainer.store.get(doc.entity_id).features
            assert view.label_of(doc.entity_id) == view.model.predict(features)
