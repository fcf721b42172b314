"""Contract tests run against all three entity-store architectures, plus
architecture-specific tests for the on-disk and hybrid stores."""

from __future__ import annotations

import pytest

from repro.core.stores import HybridEntityStore, InMemoryEntityStore, OnDiskEntityStore
from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.costmodel import CostModel
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.linalg import SparseVector


def make_store(kind: str, buffer_pool_pages: int | None = None):
    if kind == "mainmemory":
        return InMemoryEntityStore(feature_norm_q=1.0)
    pool = BufferPool(CostModel(), capacity_pages=buffer_pool_pages, statistics=IOStatistics())
    if kind == "ondisk":
        return OnDiskEntityStore(pool=pool, feature_norm_q=1.0)
    return HybridEntityStore(pool=pool, feature_norm_q=1.0, buffer_fraction=0.1)


def sample_entities(count: int = 40) -> list[tuple[int, SparseVector]]:
    # Margins under the model below spread from negative to positive.
    return [(i, SparseVector({0: 1.0, 1: i / 10.0})) for i in range(count)]


def sample_model() -> LinearModel:
    # margin = -2 + 0.1 * i for entity i (with the vectors above).
    return LinearModel(weights=Weights.of(SparseVector({0: -2.0, 1: 1.0})), bias=0.0, version=0)


STORE_KINDS = ["mainmemory", "ondisk", "hybrid"]


@pytest.mark.parametrize("kind", STORE_KINDS)
class TestStoreContract:
    def test_bulk_load_populates_and_returns_cost(self, kind):
        store = make_store(kind)
        cost = store.bulk_load(sample_entities(), sample_model())
        assert store.count() == 40
        assert cost >= 0.0

    def test_bulk_load_rejects_duplicate_ids(self, kind):
        store = make_store(kind)
        with pytest.raises(DuplicateKeyError):
            store.bulk_load([(1, SparseVector({0: 1.0})), (1, SparseVector({0: 2.0}))], sample_model())

    def test_labels_follow_model_sign(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        for record in store.scan_all():
            assert record.label == (1 if record.eps >= 0 else -1)

    def test_label_counts(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        positives = store.count_label(1)
        negatives = store.count_label(-1)
        assert positives + negatives == 40
        assert positives == sum(1 for r in store.scan_all() if r.label == 1)

    def test_get_by_id(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        record = store.get(25)
        assert record.entity_id == 25
        assert record.eps == pytest.approx(0.5)

    def test_get_missing_raises(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        with pytest.raises(KeyNotFoundError):
            store.get(999)

    def test_scan_all_is_sorted_by_eps(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        eps_values = [record.eps for record in store.scan_all()]
        assert eps_values == sorted(eps_values)

    def test_range_scan_matches_filter(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        low, high = -0.55, 0.35
        expected = sorted(
            record.entity_id for record in store.scan_all() if low <= record.eps <= high
        )
        actual = sorted(record.entity_id for record in store.scan_eps(low, high))
        assert actual == expected

    def test_at_least_and_at_most_scans(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        at_least = {r.entity_id for r in store.scan_eps(low=0.0)}
        at_most = {r.entity_id for r in store.scan_eps(high=-0.05)}
        assert at_least == {r.entity_id for r in store.scan_all() if r.eps >= 0.0}
        assert at_most == {r.entity_id for r in store.scan_all() if r.eps <= -0.05}

    def test_update_label(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        record = store.get(0)
        new_label = -record.label
        store.update_label(0, new_label)
        assert store.get(0).label == new_label

    def test_update_label_adjusts_counts(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        positives = store.count_label(1)
        store.update_label(0, 1)  # entity 0 is negative under the model
        assert store.count_label(1) == positives + 1

    def test_update_label_missing_raises(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        with pytest.raises(KeyNotFoundError):
            store.update_label(999, 1)

    def test_insert_new_entity(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        store.insert(1000, SparseVector({1: 9.0}), eps=7.0, label=1)
        assert store.count() == 41
        assert store.get(1000).label == 1
        assert 1000 in {r.entity_id for r in store.scan_eps(low=6.0)}

    def test_insert_duplicate_rejected(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        with pytest.raises(DuplicateKeyError):
            store.insert(0, SparseVector({0: 1.0}), eps=0.0, label=1)

    def test_reorganize_reclusters_under_new_model(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        flipped = LinearModel(
            weights=Weights.of(SparseVector({0: 2.0, 1: -1.0})), bias=0.0, version=5
        )
        cost = store.reorganize(flipped)
        assert cost >= 0.0
        eps_values = [record.eps for record in store.scan_all()]
        assert eps_values == sorted(eps_values)
        for record in store.scan_all():
            assert record.eps == pytest.approx(flipped.margin(record.features))
            assert record.label == (1 if record.eps >= 0 else -1)

    def test_max_feature_norm_tracks_largest_vector(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        baseline = store.max_feature_norm
        store.insert(500, SparseVector({0: 50.0}), eps=0.0, label=1)
        assert store.max_feature_norm >= max(baseline, 50.0)

    def test_memory_usage_reports_total(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        usage = store.memory_usage()
        assert usage["total"] > 0
        assert usage["total"] == sum(v for k, v in usage.items() if k != "total")

    def test_count_eps_in_range(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        assert store.count_eps_in_range(-0.15, 0.15) == sum(
            1 for r in store.scan_all() if -0.15 <= r.eps <= 0.15
        )

    def test_scan_cost_estimate_nonnegative(self, kind):
        store = make_store(kind)
        store.bulk_load(sample_entities(), sample_model())
        assert store.scan_cost_estimate() >= 0.0


class TestOnDiskSpecifics:
    def test_a_store_is_priced_by_its_pool(self):
        pool = BufferPool(CostModel(), statistics=IOStatistics())
        for store in (OnDiskEntityStore(pool=pool), HybridEntityStore(pool=pool)):
            assert store.cost_model is pool.cost_model and store.stats is pool.stats
        fresh = OnDiskEntityStore()
        assert fresh.pool is not pool
        assert fresh.cost_model is fresh.pool.cost_model and fresh.stats is fresh.pool.stats

    def test_the_btree_order_is_read_when_the_store_is_built(self, monkeypatch):
        monkeypatch.setattr("repro.core.stores.ondisk.BTREE_ORDER", 4)
        store = make_store("ondisk")
        assert store.eps_index.order == 4
        store.bulk_load(sample_entities(), sample_model())  # rebuilds the tree
        assert store.eps_index.order == 4
        # margin = -2 + 0.1 * i: eps order is id order through a many-level tree.
        assert [record.entity_id for record in store.scan_all()] == list(range(40))
        assert sorted(r.entity_id for r in store.scan_eps(-0.05, 0.05)) == [20]

    def test_operations_charge_simulated_io(self):
        store = make_store("ondisk", buffer_pool_pages=2)
        store.bulk_load(sample_entities(200), sample_model())
        before = store.cost_snapshot()
        list(store.scan_all())
        assert store.cost_snapshot() > before
        assert store.stats.page_reads > 0

    def test_band_scan_touches_fewer_pages_than_full_scan(self):
        store = make_store("ondisk", buffer_pool_pages=2)
        store.bulk_load(sample_entities(400), sample_model())
        before = store.stats.page_reads
        list(store.scan_all())
        full_scan_reads = store.stats.page_reads - before
        before = store.stats.page_reads
        list(store.scan_eps(-0.05, 0.05))
        band_reads = store.stats.page_reads - before
        assert band_reads < full_scan_reads

    def test_reorganization_is_more_expensive_than_band_scan(self):
        store = make_store("ondisk", buffer_pool_pages=4)
        store.bulk_load(sample_entities(300), sample_model())
        before = store.cost_snapshot()
        list(store.scan_eps(-0.05, 0.05))
        band_cost = store.cost_snapshot() - before
        reorg_cost = store.reorganize(sample_model())
        assert reorg_cost > band_cost


class TestHybridSpecifics:
    def test_eps_hint_served_from_memory(self):
        store = make_store("hybrid")
        store.bulk_load(sample_entities(), sample_model())
        io_before = store.stats.page_reads
        hint = store.eps_hint(25)
        assert hint == pytest.approx(0.5)
        assert store.stats.page_reads == io_before
        assert store.epsmap_served == 1

    def test_eps_hint_missing_entity_is_none(self):
        store = make_store("hybrid")
        store.bulk_load(sample_entities(), sample_model())
        assert store.eps_hint(999) is None

    def test_buffer_serves_hot_entities(self):
        store = HybridEntityStore(
            pool=BufferPool(CostModel(), statistics=IOStatistics()),
            feature_norm_q=1.0,
            buffer_fraction=0.25,  # 10 of the 40 entities
        )
        store.bulk_load(sample_entities(), sample_model())
        # The buffered entities are the ones with the smallest |eps| (around id 20).
        assert store.buffer_size() == 10
        store.get(20)
        assert store.buffer_served >= 1

    def test_buffer_write_through_on_label_update(self):
        store = HybridEntityStore(
            pool=BufferPool(CostModel(), statistics=IOStatistics()),
            feature_norm_q=1.0,
            buffer_fraction=1.0,  # all 40 entities
        )
        store.bulk_load(sample_entities(), sample_model())
        store.update_label(20, 1)
        assert store.get(20).label == 1
        assert store.disk.get(20).label == 1

    def test_memory_usage_breaks_out_eps_map_and_buffer(self):
        store = make_store("hybrid")
        store.bulk_load(sample_entities(), sample_model())
        usage = store.memory_usage()
        assert usage["eps_map"] == 16 * 40
        assert "buffer" in usage and "disk_indexes" in usage

    def test_eps_map_is_much_smaller_than_feature_data(self):
        """The Figure 6(A) claim: the eps-map is far smaller than the data set."""
        entities = [
            (i, SparseVector({j: 1.0 for j in range(i % 50 + 10)})) for i in range(200)
        ]
        store = make_store("hybrid")
        store.bulk_load(entities, sample_model())
        usage = store.memory_usage()
        data_bytes = sum(features.approx_size_bytes() for _, features in entities)
        assert usage["eps_map"] < data_bytes / 5

    def test_invalid_buffer_fraction(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            HybridEntityStore(buffer_fraction=1.5)

    def test_reorganize_rebuilds_eps_map(self):
        store = make_store("hybrid")
        store.bulk_load(sample_entities(), sample_model())
        flipped = LinearModel(
            weights=Weights.of(SparseVector({0: 2.0, 1: -1.0})), bias=0.0, version=3
        )
        store.reorganize(flipped)
        assert store.eps_hint(0) == pytest.approx(flipped.margin(store.get(0).features))


class TestMainMemoryMirror:
    """The feature mirror: every row, always; another way to score a slice, not another answer."""

    @staticmethod
    def loaded(count: int = 300):
        import random

        rng = random.Random(4)
        entities = [
            (i, SparseVector({rng.randrange(60): rng.gauss(0, 1) for _ in range(rng.randint(0, 9))}))
            for i in range(count)
        ]
        model = LinearModel(
            Weights.of(SparseVector({j: rng.gauss(0, 1) for j in range(0, 60, 2)})), bias=0.1
        )
        store = InMemoryEntityStore(feature_norm_q=1.0)
        store.bulk_load(entities, model)
        moved = LinearModel(
            Weights.of(SparseVector({j: rng.gauss(0, 1) for j in range(50)})), bias=-0.2
        )
        return store, moved, rng

    @staticmethod
    def scan_loop(store, model, band):
        """The inherited definition, with the ledger it leaves."""
        from repro.core.stores.base import EntityStore

        before = store.stats.snapshot()
        ids, labels, margins = EntityStore.score(store, model, band)
        return ids, labels, margins, store.stats.diff(before)

    def assert_same_as_scan_loop(self, store, model, band):
        want_ids, want_labels, want_margins, want_cost = self.scan_loop(store, model, band)
        before = store.stats.snapshot()
        ids, labels, margins = store.score(model, band)
        cost = store.stats.diff(before)
        assert (list(ids), list(labels)) == (want_ids, want_labels)
        assert [repr(float(m)) for m in margins] == [repr(m) for m in want_margins]
        assert (cost.tuples_read, cost.dot_products) == (want_cost.tuples_read, want_cost.dot_products)
        assert cost.detail.keys() == want_cost.detail.keys()

    @staticmethod
    def assert_mirror_holds_the_records(store):
        clustering = store._clustering
        assert clustering.mirror.count == store.count()  # no dead rows
        records = [store._records[entity_id] for entity_id in clustering.ids]
        assert clustering.mirror.labels[clustering.rows].tolist() == [r.label for r in records]
        indptr, indices = clustering.mirror.indptr, clustering.mirror.indices
        for row, record in zip(clustering.rows.tolist(), records):
            stored = indices[indptr[row] : indptr[row + 1]]
            assert stored.tolist() == record.features.indices().tolist()

    def test_bulk_load_and_a_warm_restart_build_every_row(self):
        store, model, _ = self.loaded()
        self.assert_mirror_holds_the_records(store)
        assert not store._kernel_pays(3, model)  # a handful of tuples: the scalar loop
        self.assert_same_as_scan_loop(store, model, (-1e-9, 1e-9))
        assert store._kernel_pays(store.count(), model)  # the table: the kernel
        self.assert_same_as_scan_loop(store, model, None)
        restarted = InMemoryEntityStore(feature_norm_q=1.0)
        restarted.import_state(store.export_state())
        self.assert_mirror_holds_the_records(restarted)
        assert restarted._clustering.ids == store._clustering.ids

    def test_scores_like_the_scan_loop_through_churn(self):
        store, model, rng = self.loaded()
        self.assert_same_as_scan_loop(store, model, (-0.8, 0.9))
        for step in range(60):
            victim = rng.choice([record.entity_id for record in store.scan_all()])
            if step % 3 == 0:
                store.delete(victim)
            elif step % 3 == 1:
                features = SparseVector({rng.randrange(70): rng.gauss(0, 1) for _ in range(6)})
                store.insert(1000 + step, features, eps=rng.gauss(0, 1), label=rng.choice((-1, 1)))
            else:
                store.update_label(victim, -store.get(victim).label)
        assert store._clustering.mirror.count > store.count()  # dead rows are left behind
        self.assert_same_as_scan_loop(store, model, (-0.8, 0.9))
        self.assert_same_as_scan_loop(store, model, None)
        store.reorganize(model)
        assert store._clustering.mirror.count == store.count()  # and compacted here
        self.assert_same_as_scan_loop(store, model, (-0.5, 0.5))
        assert [r.eps for r in store.scan_all()] == sorted(model.margin(r.features) for r in store.scan_all())

    def test_delete_finds_its_row_among_equal_eps(self):
        store = InMemoryEntityStore(feature_norm_q=1.0)
        store.bulk_load([(i, SparseVector({0: 1.0})) for i in range(6)], sample_model())
        store.insert("late", SparseVector({0: 1.0}), eps=-2.0, label=-1)
        store.insert("zero", SparseVector({1: 1.0}), eps=-0.0, label=1)
        store.delete(3)
        store.delete("late")
        assert [record.entity_id for record in store.scan_all()] == [0, 1, 2, 4, 5, "zero"]
        assert store.count_label(-1) == 5 and store.count_label(1) == 1
        with pytest.raises(KeyNotFoundError):
            store.delete(3)

    def test_an_insert_compacts_a_mirror_that_is_mostly_dead_rows(self):
        store, model, _ = self.loaded(count=120)
        ids_before = store._clustering.ids
        for entity_id in range(90):
            store.delete(entity_id)
        assert store._clustering.mirror.count == 120  # 90 dead rows, 30 live ones
        store.insert("fresh", SparseVector({3: 1.0}), eps=0.0, label=1)
        self.assert_mirror_holds_the_records(store)  # compacted, then appended to
        survivors = [entity_id for entity_id in ids_before if entity_id not in range(90)]
        assert [i for i in store._clustering.ids if i != "fresh"] == survivors  # order kept
        self.assert_same_as_scan_loop(store, model, None)

    def test_an_index_too_wide_for_a_dense_model_keeps_the_scalar_loop(self):
        store, model, _ = self.loaded()
        store.insert("wide", SparseVector({2**31 - 1: 1.0}), eps=0.0, label=1)
        assert store._clustering.mirror.count == store.count()  # in the mirror all the same
        assert not store._kernel_pays(store.count(), model)
        self.assert_same_as_scan_loop(store, model, None)
