"""Tests for the synthetic workload generators and traces."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.learn.sgd import SGDTrainer
from repro.workloads import (
    DATASETS,
    DenseDatasetGenerator,
    SparseCorpusGenerator,
    citeseer_like,
    dblife_like,
    forest_like,
    generate_dataset,
    interleaved_trace,
    read_trace,
    update_trace,
)


class TestSparseCorpusGenerator:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SparseCorpusGenerator(vocabulary_size=2)
        with pytest.raises(ConfigurationError):
            SparseCorpusGenerator(nonzeros_per_document=0)
        with pytest.raises(ConfigurationError):
            SparseCorpusGenerator(positive_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SparseCorpusGenerator(label_noise=0.7)

    def test_deterministic_given_seed(self):
        a = SparseCorpusGenerator(seed=5).generate_list(20)
        b = SparseCorpusGenerator(seed=5).generate_list(20)
        assert [list(d.features.items()) for d in a] == [list(d.features.items()) for d in b]
        assert [d.label for d in a] == [d.label for d in b]

    def test_different_seeds_differ(self):
        a = SparseCorpusGenerator(seed=1).generate_list(20)
        b = SparseCorpusGenerator(seed=2).generate_list(20)
        assert [list(d.features.items()) for d in a] != [list(d.features.items()) for d in b]

    def test_entity_ids_are_sequential(self):
        docs = SparseCorpusGenerator(seed=0).generate_list(10, start_id=100)
        assert [d.entity_id for d in docs] == list(range(100, 110))

    def test_feature_dimension_bounded_by_vocabulary(self):
        generator = SparseCorpusGenerator(vocabulary_size=50, seed=3)
        docs = generator.generate_list(30)
        assert max(d.features.max_index() for d in docs) < 50

    def test_positive_fraction_approximately_respected(self):
        generator = SparseCorpusGenerator(positive_fraction=0.3, label_noise=0.0, seed=9)
        docs = generator.generate_list(600)
        fraction = sum(1 for d in docs if d.label == 1) / len(docs)
        assert 0.2 < fraction < 0.4

    def test_average_nonzeros_close_to_target(self):
        generator = SparseCorpusGenerator(nonzeros_per_document=20, vocabulary_size=5000, seed=1)
        docs = generator.generate_list(200)
        assert 10 < generator.average_nonzeros(docs) <= 21

    def test_text_matches_vector_terms(self):
        generator = SparseCorpusGenerator(seed=2)
        doc = generator.generate_list(1)[0]
        tokens = set(doc.text.split())
        indices = {int(token.removeprefix("term")) for token in tokens}
        assert indices == set(doc.features.indices())

    def test_labels_are_binary(self):
        docs = SparseCorpusGenerator(seed=4).generate_list(50)
        assert set(d.label for d in docs) <= {-1, 1}

    def test_corpus_is_learnable(self):
        generator = SparseCorpusGenerator(
            vocabulary_size=400, nonzeros_per_document=12, positive_fraction=0.4, seed=8
        )
        docs = generator.generate_list(400)
        trainer = SGDTrainer(loss="svm")
        from repro.learn.sgd import TrainingExample

        trainer.absorb_many(
            [TrainingExample(d.entity_id, d.features, d.label) for d in docs[:300]] * 3
        )
        holdout = docs[300:]
        accuracy = sum(1 for d in holdout if trainer.predict(d.features) == d.label) / len(holdout)
        majority = max(
            sum(1 for d in holdout if d.label == 1), sum(1 for d in holdout if d.label == -1)
        ) / len(holdout)
        assert accuracy > majority


class TestDenseGenerator:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DenseDatasetGenerator(dimensions=1)
        with pytest.raises(ConfigurationError):
            DenseDatasetGenerator(class_count=1)
        with pytest.raises(ConfigurationError):
            DenseDatasetGenerator(label_noise=0.9)

    def test_deterministic_given_seed(self):
        a = DenseDatasetGenerator(seed=3).generate_list(10)
        b = DenseDatasetGenerator(seed=3).generate_list(10)
        assert [list(x.features.items()) for x in a] == [list(x.features.items()) for x in b]

    def test_vectors_are_unit_l2(self):
        for example in DenseDatasetGenerator(seed=1).generate_list(20):
            assert example.features.norm(2) == pytest.approx(1.0)

    def test_multiclass_labels_in_range(self):
        generator = DenseDatasetGenerator(class_count=7, seed=2)
        for example in generator.generate_list(50):
            assert 0 <= example.multiclass_label < 7

    def test_binary_label_is_largest_class_vs_rest(self):
        generator = DenseDatasetGenerator(class_count=5, label_noise=0.0, seed=6)
        for example in generator.generate_list(50):
            assert example.label == (1 if example.multiclass_label == 0 else -1)


class TestNamedDatasets:
    def test_figure3_datasets_exist(self):
        assert set(DATASETS) == {"forest", "dblife", "citeseer"}

    def test_generate_by_name_and_helpers(self):
        assert generate_dataset("forest", scale=0.05).spec.abbreviation == "FC"
        assert dblife_like(scale=0.05).spec.abbreviation == "DB"
        assert citeseer_like(scale=0.05).spec.abbreviation == "CS"
        assert forest_like(scale=0.05).spec.kind == "dense"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_dataset("imagenet")

    def test_scale_controls_entity_count(self):
        small = dblife_like(scale=0.05)
        large = dblife_like(scale=0.2)
        assert large.entity_count() > small.entity_count()
        with pytest.raises(ConfigurationError):
            DATASETS["dblife"].scaled_entities(0.0)

    def test_statistics_row_reports_paper_and_generated_numbers(self):
        dataset = dblife_like(scale=0.05)
        row = dataset.statistics_row()
        assert row["paper_entities"] == 124_000
        assert row["generated_entities"] == dataset.entity_count()
        assert row["generated_avg_nonzeros"] > 0

    def test_labels_cover_every_entity(self):
        dataset = citeseer_like(scale=0.02)
        assert set(dataset.labels) == {entity_id for entity_id, _ in dataset.entities}

    def test_forest_has_multiclass_labels(self):
        dataset = forest_like(scale=0.02)
        assert dataset.multiclass_labels
        assert set(dataset.multiclass_labels.values()) <= set(range(7))

    def test_training_examples_sampled_from_entities(self):
        dataset = dblife_like(scale=0.05)
        examples = dataset.training_examples(50, seed=3)
        ids = {entity_id for entity_id, _ in dataset.entities}
        assert all(entity_id in ids for entity_id, _, _ in examples)
        assert all(label in (-1, 1) for _, _, label in examples)


class TestTraces:
    def test_update_trace_split(self, small_dataset):
        trace = update_trace(small_dataset, warmup=30, timed=20, seed=1)
        assert len(trace) == 50
        assert len(trace.warm_examples()) == 30
        assert len(trace.timed_examples()) == 20

    def test_update_trace_rejects_negative_counts(self, small_dataset):
        with pytest.raises(ConfigurationError):
            update_trace(small_dataset, warmup=-1, timed=5)

    def test_read_trace_ids_are_valid(self, small_dataset):
        ids = {entity_id for entity_id, _ in small_dataset.entities}
        assert all(entity_id in ids for entity_id in read_trace(small_dataset, 100, seed=2))

    def test_read_trace_negative_count_rejected(self, small_dataset):
        with pytest.raises(ConfigurationError):
            read_trace(small_dataset, -1)

    def test_interleaved_trace_mixes_updates_and_reads(self, small_dataset):
        events = list(interleaved_trace(small_dataset, updates=10, reads_per_update=2, seed=3))
        kinds = [kind for kind, _ in events]
        assert kinds.count("update") == 10
        assert kinds.count("read") == 20

    def test_traces_are_deterministic(self, small_dataset):
        a = update_trace(small_dataset, warmup=5, timed=5, seed=7)
        b = update_trace(small_dataset, warmup=5, timed=5, seed=7)
        assert [e.entity_id for e in a.examples] == [e.entity_id for e in b.examples]
