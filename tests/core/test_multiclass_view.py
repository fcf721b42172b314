"""Tests for multiclass classification views (Appendix B.5.4 / Figure 12B)."""

from __future__ import annotations

import pytest

from repro.core.maintainers import HazyEagerMaintainer, NaiveEagerMaintainer
from repro.core.multiclass_view import MulticlassClassificationView
from repro.core.stores import InMemoryEntityStore
from repro.exceptions import ConfigurationError, NotFittedError
from repro.workloads.synth_dense import DenseDatasetGenerator


@pytest.fixture(autouse=True)
def constant_step(sgd_constants):
    """Every per-label trainer steps at a constant 0.5."""
    sgd_constants(LEARNING_RATE=0.5, DECAY=0.0)


def build_view(strategy: str = "hazy", labels=None) -> MulticlassClassificationView:
    labels = labels if labels is not None else [0, 1, 2]
    maintainer_factory = (
        (lambda store: HazyEagerMaintainer(store))
        if strategy == "hazy"
        else (lambda store: NaiveEagerMaintainer(store))
    )
    return MulticlassClassificationView(
        labels=labels,
        store_factory=lambda: InMemoryEntityStore(feature_norm_q=2.0),
        maintainer_factory=maintainer_factory,
    )


def dense_data(count: int = 120, classes: int = 3):
    generator = DenseDatasetGenerator(dimensions=12, class_count=classes, label_noise=0.0, seed=4)
    examples = generator.generate_list(count)
    entities = [(ex.entity_id, ex.features) for ex in examples]
    labels = {ex.entity_id: ex.multiclass_label for ex in examples}
    return entities, labels


class TestConstruction:
    def test_requires_two_labels(self):
        with pytest.raises(ConfigurationError):
            build_view(labels=[0])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            build_view(labels=[0, 0])

    def test_operations_require_bulk_load(self):
        view = build_view()
        with pytest.raises(ConfigurationError):
            view.absorb_example(1, None, 0)


class TestTrainingAndPrediction:
    def test_unknown_label_rejected(self):
        entities, _ = dense_data(20)
        view = build_view()
        view.bulk_load(entities)
        with pytest.raises(ConfigurationError):
            view.absorb_example(entities[0][0], entities[0][1], 99)

    def test_predict_before_training_raises(self):
        entities, _ = dense_data(20)
        view = build_view()
        view.bulk_load(entities)
        with pytest.raises(NotFittedError):
            view.predict(entities[0][0])

    def test_learns_multiclass_assignment(self):
        entities, labels = dense_data(150, classes=3)
        view = build_view("hazy")
        view.bulk_load(entities)
        for entity_id, features in entities:
            view.absorb_example(entity_id, features, labels[entity_id])
        for entity_id, features in entities:
            view.absorb_example(entity_id, features, labels[entity_id])
        correct = sum(1 for entity_id, _ in entities if view.predict(entity_id) == labels[entity_id])
        assert correct / len(entities) > 0.7

    def test_updates_counter(self):
        entities, labels = dense_data(30)
        view = build_view()
        view.bulk_load(entities)
        for entity_id, features in entities[:10]:
            view.absorb_example(entity_id, features, labels[entity_id])
        assert view.updates == 10

    def test_members_partition_is_consistent(self):
        entities, labels = dense_data(100, classes=3)
        view = build_view("hazy")
        view.bulk_load(entities)
        for entity_id, features in entities:
            view.absorb_example(entity_id, features, labels[entity_id])
        members_union = set()
        for label in view.labels:
            members_union.update(view.members(label))
        assert members_union.issubset({entity_id for entity_id, _ in entities})

    def test_members_unknown_label_rejected(self):
        entities, _ = dense_data(20)
        view = build_view()
        view.bulk_load(entities)
        with pytest.raises(ConfigurationError):
            view.members(99)

    def test_add_entity_propagates_to_all_binary_views(self):
        entities, labels = dense_data(40)
        view = build_view()
        view.bulk_load(entities)
        for entity_id, features in entities[:20]:
            view.absorb_example(entity_id, features, labels[entity_id])
        extra_entities, _ = dense_data(45)
        new_id, new_features = extra_entities[-1]
        view.add_entity(new_id + 100_000, new_features)
        for maintainer in view.maintainers.values():
            assert maintainer.store.count() == len(entities) + 1

    def test_hazy_does_less_update_work_than_naive(self):
        entities, labels = dense_data(200, classes=4)
        hazy = MulticlassClassificationView(
            labels=[0, 1, 2, 3],
            store_factory=lambda: InMemoryEntityStore(feature_norm_q=2.0),
            maintainer_factory=lambda store: HazyEagerMaintainer(store),
        )
        naive = MulticlassClassificationView(
            labels=[0, 1, 2, 3],
            store_factory=lambda: InMemoryEntityStore(feature_norm_q=2.0),
            maintainer_factory=lambda store: NaiveEagerMaintainer(store),
        )
        for view in (hazy, naive):
            view.bulk_load(entities)
            # Warm phase: first half of the stream.
            for entity_id, features in entities[:100]:
                view.absorb_example(entity_id, features, labels[entity_id])
        hazy_before = hazy.total_simulated_update_seconds()
        naive_before = naive.total_simulated_update_seconds()
        for view in (hazy, naive):
            for entity_id, features in entities[100:150]:
                view.absorb_example(entity_id, features, labels[entity_id])
        hazy_cost = hazy.total_simulated_update_seconds() - hazy_before
        naive_cost = naive.total_simulated_update_seconds() - naive_before
        assert hazy_cost < naive_cost
