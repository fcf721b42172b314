"""Edge-case and failure-injection tests for the maintenance core."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.bounds import WaterBandTracker
from repro.core.maintainers import HazyEagerMaintainer, HazyLazyMaintainer, NaiveEagerMaintainer
from repro.core.stores import HybridEntityStore, InMemoryEntityStore, OnDiskEntityStore
from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.costmodel import CostModel
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector


class TestEmptyAndTinyViews:
    def test_bulk_load_empty_corpus(self):
        maintainer = HazyEagerMaintainer(InMemoryEntityStore())
        maintainer.bulk_load([], LinearModel())
        assert maintainer.read_all_members(1) == []
        assert maintainer.store.count() == 0

    def test_updates_on_empty_view_are_harmless(self):
        maintainer = HazyEagerMaintainer(InMemoryEntityStore())
        trainer = SGDTrainer()
        maintainer.bulk_load([], trainer.model)
        model = trainer.absorb(TrainingExample(1, SparseVector({0: 1.0}), 1))
        maintainer.apply_model(model)
        assert maintainer.stats.updates == 1

    def test_single_entity_view(self):
        maintainer = HazyLazyMaintainer(InMemoryEntityStore())
        trainer = SGDTrainer()
        maintainer.bulk_load([(7, SparseVector({0: 1.0}))], trainer.model)
        model = trainer.absorb(TrainingExample(7, SparseVector({0: 1.0}), 1))
        maintainer.apply_model(model)
        assert maintainer.read_single(7) == model.predict(SparseVector({0: 1.0}))
        assert maintainer.read_all_members(1) in ([7], [])

    def test_entities_added_before_any_training(self):
        maintainer = NaiveEagerMaintainer(InMemoryEntityStore())
        maintainer.bulk_load([], LinearModel())
        label = maintainer.add_entity(1, SparseVector({0: -3.0}))
        # With the zero model every margin is 0 and sign(0) = +1.
        assert label == 1
        assert maintainer.read_single(1) == 1


class TestDuplicateAndMissingEntities:
    def test_duplicate_add_entity_rejected(self):
        maintainer = HazyEagerMaintainer(InMemoryEntityStore())
        maintainer.bulk_load([(1, SparseVector({0: 1.0}))], LinearModel())
        with pytest.raises(DuplicateKeyError):
            maintainer.add_entity(1, SparseVector({0: 2.0}))

    def test_read_of_unknown_entity_raises(self):
        maintainer = HazyEagerMaintainer(InMemoryEntityStore())
        maintainer.bulk_load([(1, SparseVector({0: 1.0}))], LinearModel())
        with pytest.raises(KeyNotFoundError):
            maintainer.read_single(99)

    def test_hybrid_read_of_unknown_entity_raises(self):
        store = HybridEntityStore(
            pool=BufferPool(CostModel(), statistics=IOStatistics()), buffer_fraction=0.1
        )
        maintainer = HazyLazyMaintainer(store)
        maintainer.bulk_load([(1, SparseVector({0: 1.0}))], LinearModel())
        with pytest.raises(KeyNotFoundError):
            maintainer.read_single(42)


class TestExtremeModels:
    def test_huge_model_jump_forces_full_band(self, sgd_constants):
        """A drastic model change puts everything in the band — and stays correct."""
        entities = [(i, SparseVector({0: 1.0, 1: float(i)})) for i in range(30)]
        maintainer = HazyEagerMaintainer(InMemoryEntityStore(feature_norm_q=1.0))
        sgd_constants(LEARNING_RATE=50.0, DECAY=0.0)
        trainer = SGDTrainer()
        maintainer.bulk_load(entities, trainer.model)
        model = trainer.absorb(TrainingExample(0, SparseVector({0: 1.0, 1: 29.0}), -1))
        maintainer.apply_model(model)
        for entity_id, features in entities:
            assert maintainer.read_single(entity_id) == model.predict(features)

    def test_identical_model_update_is_free_of_reclassification(self):
        entities = [(i, SparseVector({0: float(i) - 5.0})) for i in range(10)]
        maintainer = HazyEagerMaintainer(InMemoryEntityStore())
        model = LinearModel(weights=Weights.of(SparseVector({0: 1.0})), bias=0.0, version=1)
        maintainer.bulk_load(entities, model)
        maintainer.apply_model(dataclasses.replace(model, version=2))
        # Band is degenerate [0, 0]: only tuples with eps exactly 0 are rechecked.
        assert maintainer.stats.tuples_reclassified <= 1

    def test_negative_bias_only_model(self):
        entities = [(i, SparseVector({0: 1.0})) for i in range(5)]
        maintainer = NaiveEagerMaintainer(InMemoryEntityStore())
        maintainer.bulk_load(entities, LinearModel(bias=5.0))
        assert maintainer.read_all_members(1) == []
        assert len(maintainer.read_all_members(-1)) == 5


class TestSkiingIntegrationWithStores:
    def test_reorganization_cost_tracks_measured_cost(self, sgd_constants):
        pool = BufferPool(CostModel(), capacity_pages=8, statistics=IOStatistics())
        store = OnDiskEntityStore(pool=pool, feature_norm_q=1.0)
        maintainer = HazyEagerMaintainer(store, alpha=0.01)
        entities = [(i, SparseVector({0: 1.0, 1: i / 50.0})) for i in range(300)]
        sgd_constants(LEARNING_RATE=1.0, DECAY=0.0)
        trainer = SGDTrainer()
        maintainer.bulk_load(entities, trainer.model)
        initial_estimate = maintainer.skiing.reorganization_cost
        assert initial_estimate > 0
        for i in range(20):
            example = TrainingExample(i, entities[i][1], 1 if i % 2 == 0 else -1)
            maintainer.apply_model(trainer.absorb(example))
        if maintainer.stats.reorganizations:
            # After a real reorganization, S reflects the measured cost.
            assert maintainer.skiing.reorganization_cost > 0

    def test_alpha_zero_reorganizes_every_round(self):
        maintainer = HazyEagerMaintainer(InMemoryEntityStore(), alpha=0.0)
        entities = [(i, SparseVector({0: float(i)})) for i in range(20)]
        trainer = SGDTrainer()
        maintainer.bulk_load(entities, trainer.model)
        for i in range(5):
            maintainer.apply_model(
                trainer.absorb(TrainingExample(i, entities[i][1], 1))
            )
        assert maintainer.stats.reorganizations == 5

    def test_huge_alpha_never_reorganizes(self):
        maintainer = HazyEagerMaintainer(InMemoryEntityStore(), alpha=1e9)
        entities = [(i, SparseVector({0: float(i)})) for i in range(20)]
        trainer = SGDTrainer()
        maintainer.bulk_load(entities, trainer.model)
        for i in range(10):
            maintainer.apply_model(
                trainer.absorb(TrainingExample(i, entities[i][1], -1 if i % 2 else 1))
            )
        assert maintainer.stats.reorganizations == 0


class TestTrackerEdgeCases:
    def test_zero_feature_norm_corpus(self):
        """All-zero feature vectors: M = 0, so only the bias delta matters."""
        tracker = WaterBandTracker(p=2.0, max_feature_norm=0.0)
        tracker.reset(LinearModel())
        band = tracker.advance(
            LinearModel(weights=Weights.of(SparseVector({0: 5.0})), bias=0.3, version=1)
        )
        assert band.high == pytest.approx(0.3)
        assert band.low == pytest.approx(0.0)

    def test_band_after_reset_is_degenerate(self):
        tracker = WaterBandTracker(p=2.0, max_feature_norm=1.0)
        tracker.reset(LinearModel())
        tracker.advance(
            LinearModel(weights=Weights.of(SparseVector({0: 1.0})), bias=1.0, version=1)
        )
        tracker.reset(LinearModel(weights=Weights.of(SparseVector({0: 1.0})), bias=1.0, version=1))
        band = tracker.band()
        assert band.low == 0.0 and band.high == 0.0
