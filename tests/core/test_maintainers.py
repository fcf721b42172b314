"""Tests for the four maintenance strategies, including cross-strategy consistency."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.maintainers import (
    HazyEagerMaintainer,
    HazyLazyMaintainer,
    NaiveEagerMaintainer,
    NaiveLazyMaintainer,
)
from repro.core.stores import (
    HybridEntityStore,
    InMemoryEntityStore,
    OnDiskEntityStore,
)
from repro.core.stores.base import EntityStore
from repro.core.view import view_contents
from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.costmodel import CostModel
from repro.db.types import KeyRange
from repro.exceptions import MaintenanceError
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector
from repro.workloads.synth_text import SparseCorpusGenerator

MAINTAINER_CLASSES = {
    "naive-eager": NaiveEagerMaintainer,
    "naive-lazy": NaiveLazyMaintainer,
    "hazy-eager": HazyEagerMaintainer,
    "hazy-lazy": HazyLazyMaintainer,
}

STORE_KINDS = ["mainmemory", "ondisk", "hybrid"]


def make_store(kind: str):
    if kind == "mainmemory":
        return InMemoryEntityStore(feature_norm_q=1.0)
    pool = BufferPool(CostModel(), capacity_pages=32, statistics=IOStatistics())
    if kind == "ondisk":
        return OnDiskEntityStore(pool=pool, feature_norm_q=1.0)
    return HybridEntityStore(pool=pool, feature_norm_q=1.0, buffer_fraction=0.05)


def corpus(count: int = 150, seed: int = 3):
    generator = SparseCorpusGenerator(
        vocabulary_size=300, nonzeros_per_document=8, positive_fraction=0.35, seed=seed
    )
    return generator.generate_list(count)


def run_update_stream(maintainer, trainer, documents, updates: int, seed: int = 1):
    """Feed ``updates`` training examples through trainer + maintainer."""
    rng = random.Random(seed)
    for _ in range(updates):
        doc = documents[rng.randrange(len(documents))]
        model = trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))
        maintainer.apply_model(model)
    return trainer.model


class TestLifecycleGuards:
    @pytest.mark.parametrize("name", list(MAINTAINER_CLASSES))
    def test_operations_require_bulk_load(self, name):
        maintainer = MAINTAINER_CLASSES[name](make_store("mainmemory"))
        with pytest.raises(MaintenanceError):
            maintainer.apply_model(SGDTrainer().model)
        with pytest.raises(MaintenanceError):
            maintainer.read_single(1)
        with pytest.raises(MaintenanceError):
            maintainer.read_all_members()
        with pytest.raises(MaintenanceError):
            maintainer.add_entity(1, SparseVector({0: 1.0}))

    def test_repr_mentions_counts(self):
        maintainer = NaiveEagerMaintainer(make_store("mainmemory"))
        maintainer.bulk_load([(1, SparseVector({0: 1.0}))], SGDTrainer().model)
        assert "entities=1" in repr(maintainer)


@pytest.mark.parametrize("name", list(MAINTAINER_CLASSES))
class TestAgainstDeclarativeSemantics:
    """Every strategy must agree with the paper's view semantics (view_contents)."""

    def test_matches_oracle_after_update_stream(self, name):
        documents = corpus(120)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        maintainer = MAINTAINER_CLASSES[name](make_store("mainmemory"))
        maintainer.bulk_load(entities, trainer.model)
        final_model = run_update_stream(maintainer, trainer, documents, updates=60)
        oracle = view_contents(entities, final_model)
        for entity_id, expected in oracle.items():
            assert maintainer.read_single(entity_id) == expected

    def test_all_members_matches_oracle(self, name):
        documents = corpus(100, seed=11)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        maintainer = MAINTAINER_CLASSES[name](make_store("mainmemory"))
        maintainer.bulk_load(entities, trainer.model)
        final_model = run_update_stream(maintainer, trainer, documents, updates=40, seed=9)
        oracle = view_contents(entities, final_model)
        expected_positive = {eid for eid, label in oracle.items() if label == 1}
        expected_negative = {eid for eid, label in oracle.items() if label == -1}
        assert set(maintainer.read_all_members(1)) == expected_positive
        assert set(maintainer.read_all_members(-1)) == expected_negative

    def test_new_entities_are_classified_and_maintained(self, name):
        documents = corpus(80, seed=21)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        maintainer = MAINTAINER_CLASSES[name](make_store("mainmemory"))
        maintainer.bulk_load(entities, trainer.model)
        run_update_stream(maintainer, trainer, documents, updates=25, seed=4)
        # A new entity arrives mid-stream.
        newcomer = corpus(5, seed=99)[0]
        new_id = 10_000
        maintainer.add_entity(new_id, newcomer.features)
        final_model = run_update_stream(maintainer, trainer, documents, updates=25, seed=6)
        assert maintainer.read_single(new_id) == final_model.predict(newcomer.features)


@pytest.mark.parametrize("kind", STORE_KINDS)
class TestArchitectureConsistency:
    """The Hazy eager strategy gives identical view contents on every architecture."""

    def test_hazy_eager_matches_naive_eager(self, kind):
        documents = corpus(100, seed=31)
        entities = [(doc.entity_id, doc.features) for doc in documents]

        naive_trainer = SGDTrainer()
        naive = NaiveEagerMaintainer(make_store("mainmemory"))
        naive.bulk_load(entities, naive_trainer.model)
        run_update_stream(naive, naive_trainer, documents, updates=50, seed=13)

        hazy_trainer = SGDTrainer()
        hazy = HazyEagerMaintainer(make_store(kind))
        hazy.bulk_load(entities, hazy_trainer.model)
        run_update_stream(hazy, hazy_trainer, documents, updates=50, seed=13)

        assert hazy.contents() == naive.contents()

    def test_hazy_lazy_matches_naive_eager(self, kind):
        documents = corpus(100, seed=41)
        entities = [(doc.entity_id, doc.features) for doc in documents]

        naive_trainer = SGDTrainer()
        naive = NaiveEagerMaintainer(make_store("mainmemory"))
        naive.bulk_load(entities, naive_trainer.model)
        run_update_stream(naive, naive_trainer, documents, updates=40, seed=23)

        lazy_trainer = SGDTrainer()
        lazy = HazyLazyMaintainer(make_store(kind))
        lazy.bulk_load(entities, lazy_trainer.model)
        run_update_stream(lazy, lazy_trainer, documents, updates=40, seed=23)

        assert lazy.contents() == naive.contents()


class TestHazyEagerBehaviour:
    def test_incremental_step_touches_fewer_tuples_than_naive(self):
        documents = corpus(200, seed=51)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        # Warm the model first so per-update deltas are small.
        warm = [
            TrainingExample(doc.entity_id, doc.features, doc.label)
            for doc in random.Random(5).sample(documents, 120)
        ]
        for example in warm:
            trainer.absorb(example)
        hazy = HazyEagerMaintainer(make_store("mainmemory"))
        hazy.bulk_load(entities, trainer.model)
        run_update_stream(hazy, trainer, documents, updates=30, seed=29)
        naive_tuples = 30 * len(entities)
        assert hazy.stats.tuples_reclassified < naive_tuples

    def test_reorganization_triggered_by_accumulated_waste(self, sgd_constants):
        documents = corpus(80, seed=61)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        sgd_constants(LEARNING_RATE=1.0, DECAY=0.0)
        trainer = SGDTrainer()
        hazy = HazyEagerMaintainer(InMemoryEntityStore(feature_norm_q=1.0), alpha=0.05)
        hazy.bulk_load(entities, trainer.model)
        run_update_stream(hazy, trainer, documents, updates=60, seed=37)
        assert hazy.stats.reorganizations >= 1
        assert hazy.skiing.reorganizations == hazy.stats.reorganizations

    def test_band_size_history_recorded(self):
        documents = corpus(60, seed=71)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        hazy = HazyEagerMaintainer(make_store("mainmemory"))
        hazy.bulk_load(entities, trainer.model)
        run_update_stream(hazy, trainer, documents, updates=10, seed=41)
        assert len(hazy.stats.band_size_history) == 10
        assert hazy.band_tuple_count() >= 0

    def test_read_single_uses_epsmap_on_hybrid(self):
        documents = corpus(120, seed=81)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        # Warm the model before the bulk load so the water band stays narrow
        # and most single-entity reads can be answered from the eps-map alone.
        warm = [
            TrainingExample(doc.entity_id, doc.features, doc.label)
            for doc in random.Random(3).sample(documents, 80)
        ]
        for example in warm:
            trainer.absorb(example)
        hazy = HazyEagerMaintainer(make_store("hybrid"))
        hazy.bulk_load(entities, trainer.model)
        run_update_stream(hazy, trainer, documents, updates=3, seed=43)
        for doc in documents[:50]:
            hazy.read_single(doc.entity_id)
        assert hazy.stats.epsmap_hits > 0


class TestHazyLazyBehaviour:
    def test_updates_do_not_touch_tuples(self):
        documents = corpus(80, seed=91)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        lazy = HazyLazyMaintainer(make_store("mainmemory"))
        lazy.bulk_load(entities, trainer.model)
        run_update_stream(lazy, trainer, documents, updates=20, seed=47)
        assert lazy.stats.tuples_reclassified == 0

    def test_waste_accumulates_and_triggers_reorganization(self):
        documents = corpus(100, seed=97)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        lazy = HazyLazyMaintainer(InMemoryEntityStore(feature_norm_q=1.0), alpha=0.01)
        lazy.bulk_load(entities, trainer.model)
        for _ in range(15):
            run_update_stream(lazy, trainer, documents, updates=3, seed=59)
            lazy.read_all_members(1)
        assert lazy.stats.reorganizations >= 1

    def test_negative_class_query(self):
        documents = corpus(80, seed=99)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        lazy = HazyLazyMaintainer(make_store("mainmemory"))
        lazy.bulk_load(entities, trainer.model)
        final_model = run_update_stream(lazy, trainer, documents, updates=20, seed=61)
        expected = {eid for eid, label in view_contents(entities, final_model).items() if label == -1}
        assert set(lazy.read_all_members(-1)) == expected


#: ``(architecture, kernel)``: main memory twice, its size rule forced so the
#: eager relabel pass scores every band with the kernel or with the scalar
#: loop; the read answers from the feature mirror's label column either way,
#: which both passes must keep in step with the records.
SLICE_STORES = [("mainmemory", True), ("mainmemory", False), ("ondisk", None), ("hybrid", None)]


@pytest.mark.parametrize(
    ("kind", "kernel"),
    SLICE_STORES,
    ids=["mainmemory-kernel", "mainmemory-scalar", "ondisk", "hybrid"],
)
class TestAllMembersFromTheSlice:
    """A Hazy All Members read, eager or lazy, scans only the eps slice Lemma 3.1 leaves open."""

    def warmed(self, maintainer_cls, kind, documents):
        trainer = SGDTrainer()
        for doc in random.Random(7).sample(documents, 120):
            trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))
        maintainer = maintainer_cls(make_store(kind))
        maintainer.bulk_load([(doc.entity_id, doc.features) for doc in documents], trainer.model)
        run_update_stream(maintainer, trainer, documents, updates=5, seed=53)
        return maintainer

    @staticmethod
    def force_size_rule(monkeypatch, kernel):
        if kernel is not None:
            monkeypatch.setattr(
                EntityStore,
                "_kernel_pays",
                lambda store, rows, model, nonzeros=None: kernel and rows > 0,
            )

    @pytest.mark.parametrize("approach", ["eager", "lazy"])
    def test_all_members_scans_fewer_tuples_than_naive(
        self, approach, kind, kernel, monkeypatch
    ):
        self.force_size_rule(monkeypatch, kernel)
        documents = corpus(200, seed=95)
        hazy_cls, naive_cls = {
            "eager": (HazyEagerMaintainer, NaiveEagerMaintainer),
            "lazy": (HazyLazyMaintainer, NaiveLazyMaintainer),
        }[approach]
        hazy = self.warmed(hazy_cls, kind, documents)
        naive = self.warmed(naive_cls, kind, documents)
        if kind == "mainmemory":
            clustering = hazy.store._clustering
            labels = clustering.mirror.labels.take(clustering.rows).tolist()
            assert labels == [record.label for record in hazy.store.scan_all()]

        for label in (1, -1):
            scanned = hazy.stats.tuples_scanned_for_reads
            members = hazy.read_all_members(label)
            band = hazy.tracker.band()
            slice_ = (band.low, None) if label == 1 else (None, band.high)
            assert hazy.stats.tuples_scanned_for_reads - scanned == hazy.store.count_eps_in_range(
                *slice_
            )
            if approach == "eager":
                assert members
                expected = [r.entity_id for r in hazy.store.scan_all() if r.label == label]
                if kind == "mainmemory":
                    assert members == expected
                else:
                    assert Counter(members) == Counter(expected)
            naive.read_all_members(label)

        assert naive.stats.tuples_scanned_for_reads == 2 * len(documents)
        assert hazy.stats.tuples_scanned_for_reads < naive.stats.tuples_scanned_for_reads

    def test_eager_key_range_read_scans_only_the_slice(self, kind, kernel, monkeypatch):
        self.force_size_rule(monkeypatch, kernel)
        documents = corpus(200, seed=95)
        hazy = self.warmed(HazyEagerMaintainer, kind, documents)
        ids = sorted(doc.entity_id for doc in documents)
        low, high = ids[20], ids[150]
        for label in (1, -1):
            band = hazy.tracker.band()
            slice_ = (band.low, None) if label == 1 else (None, band.high)
            in_slice = hazy.store.count_eps_in_range(*slice_)
            read_before = hazy.store.stats.tuples_read
            members = hazy.read_range(label, KeyRange(low, high))
            assert hazy.store.stats.tuples_read - read_before == in_slice < len(documents)
            expected = [
                r.entity_id
                for r in hazy.store.scan_all()
                if r.label == label and low <= r.entity_id <= high
            ]
            assert Counter(members) == Counter(expected)


class TestNaiveBehaviour:
    def test_naive_eager_touches_every_tuple_per_update(self):
        documents = corpus(60, seed=101)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        naive = NaiveEagerMaintainer(make_store("mainmemory"))
        naive.bulk_load(entities, trainer.model)
        run_update_stream(naive, trainer, documents, updates=10, seed=67)
        assert naive.stats.tuples_reclassified == 10 * len(entities)

    def test_naive_lazy_update_is_free(self):
        documents = corpus(60, seed=103)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        naive = NaiveLazyMaintainer(make_store("mainmemory"))
        naive.bulk_load(entities, trainer.model)
        run_update_stream(naive, trainer, documents, updates=10, seed=71)
        assert naive.stats.simulated_update_seconds == 0.0

    def test_single_reads_are_counted(self):
        documents = corpus(30, seed=105)
        entities = [(doc.entity_id, doc.features) for doc in documents]
        trainer = SGDTrainer()
        naive = NaiveEagerMaintainer(make_store("mainmemory"))
        naive.bulk_load(entities, trainer.model)
        for doc in documents[:10]:
            naive.read_single(doc.entity_id)
        assert naive.stats.single_reads == 10
