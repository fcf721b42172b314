"""export_state / import_state across all three store architectures."""

from __future__ import annotations

import pytest

from repro.core.maintainers import MAINTAINERS, build_maintainer
from repro.core.stores import STORES, HybridEntityStore, InMemoryEntityStore, OnDiskEntityStore
from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector
from repro.persist.snapshot import ShardState, row_content_hash
from repro.workloads.synth_text import SparseCorpusGenerator

ARCHITECTURES = ["mainmemory", "ondisk", "hybrid"]


def make_store(architecture: str):
    if architecture == "mainmemory":
        return InMemoryEntityStore(feature_norm_q=1.0)
    if architecture == "ondisk":
        return OnDiskEntityStore(feature_norm_q=1.0)
    return HybridEntityStore(feature_norm_q=1.0, buffer_fraction=0.05)


@pytest.fixture(scope="module")
def loaded_inputs():
    corpus = SparseCorpusGenerator(
        vocabulary_size=120, nonzeros_per_document=8, positive_fraction=0.4, seed=3
    ).generate_list(80)
    entities = [(doc.entity_id, doc.features) for doc in corpus]
    model = LinearModel(
        weights=Weights.of(SparseVector({1: 0.4, 5: -0.7, 9: 0.2})), bias=0.05, version=3
    )
    return entities, model


@pytest.mark.parametrize("architecture", ARCHITECTURES)
class TestStoreStateRoundTrip:
    def test_round_trip_preserves_every_record(self, architecture, loaded_inputs):
        entities, model = loaded_inputs
        source = make_store(architecture)
        source.bulk_load(entities, model)
        state = source.export_state()

        target = make_store(architecture)
        target.import_state(state)

        assert target.count() == source.count()
        assert target.max_feature_norm == source.max_feature_norm
        for label in (1, -1):
            assert target.count_label(label) == source.count_label(label)
        source_records = {r.entity_id: (r.eps, r.label) for r in source.scan_all()}
        target_records = {r.entity_id: (r.eps, r.label) for r in target.scan_all()}
        assert target_records == source_records

    def test_import_preserves_clustering_order(self, architecture, loaded_inputs):
        entities, model = loaded_inputs
        source = make_store(architecture)
        source.bulk_load(entities, model)
        target = make_store(architecture)
        target.import_state(source.export_state())
        eps_order = [record.eps for record in target.scan_all()]
        assert eps_order == sorted(eps_order)
        # Band scans answer identically after the import.
        low, high = eps_order[len(eps_order) // 4], eps_order[3 * len(eps_order) // 4]
        assert [r.entity_id for r in target.scan_eps(low, high)] == [
            r.entity_id for r in source.scan_eps(low, high)
        ]

    def test_import_is_cheaper_than_bulk_load(self, architecture, loaded_inputs):
        entities, model = loaded_inputs
        source = make_store(architecture)
        load_cost = source.bulk_load(entities, model)
        target = make_store(architecture)
        import_cost = target.import_state(source.export_state())
        assert import_cost < load_cost

    def test_import_charges_snapshot_read(self, architecture, loaded_inputs):
        entities, model = loaded_inputs
        source = make_store(architecture)
        source.bulk_load(entities, model)
        state = source.export_state()
        state["payload_bytes"] = 64 * 1024
        target = make_store(architecture)
        target.import_state(state)
        assert "snapshot_read" in target.stats.detail


def test_hybrid_import_rebuilds_epsmap_and_buffer(loaded_inputs):
    entities, model = loaded_inputs
    source = HybridEntityStore(feature_norm_q=1.0, buffer_fraction=0.1)
    source.bulk_load(entities, model)
    target = HybridEntityStore(feature_norm_q=1.0, buffer_fraction=0.1)
    target.import_state(source.export_state())
    # Every entity answers through the eps-map without touching disk.
    for entity_id, _ in entities:
        assert target.eps_hint(entity_id) is not None
    assert target.buffer_size() == source.buffer_size()


# -- the one mapping between ``export_state`` and a shard file ---------------------------------


@pytest.mark.parametrize("architecture", list(STORES))
@pytest.mark.parametrize("strategy,approach", list(MAINTAINERS))
def test_every_cell_survives_the_shard_state_round_trip(architecture, strategy, approach):
    """``export_state → ShardState → payload → ShardState → to_import →
    import_state`` reproduces the answers in every registered cell.

    ``ShardState``'s fields *are* ``export_state``'s keys, so a maintainer or
    store that starts exporting a key the snapshot does not know fails here,
    in its own cell, not at some checkpoint.
    """
    corpus = SparseCorpusGenerator(
        vocabulary_size=120, nonzeros_per_document=8, positive_fraction=0.4, seed=3
    ).generate_list(80)
    trainer = SGDTrainer(loss="svm")
    source = build_maintainer(strategy, approach, make_store(architecture))
    source.bulk_load([(doc.entity_id, doc.features) for doc in corpus], trainer.model)
    for doc in corpus[:25]:  # enough steps to open a water band and move Skiing's accounts
        source.apply_model(trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label)))

    exported = source.export_state()
    hashes = [[doc.entity_id, row_content_hash({"id": doc.entity_id})] for doc in corpus]
    state = ShardState(index=3, row_hashes=hashes, **exported)
    decoded = ShardState.from_payload(state.to_document(), payload_bytes=4096)
    # The payload writes the digests in the records' order.
    assert decoded.index == 3 and dict(map(tuple, decoded.row_hashes)) == dict(map(tuple, hashes))
    assert set(exported) | {"payload_bytes"} <= set(decoded.to_import())

    target = build_maintainer(strategy, approach, make_store(architecture))
    target.import_state(decoded.to_import())
    assert target.contents() == source.contents()
    for label in (1, -1):
        assert target.top_k(20, label) == source.top_k(20, label)
        assert target.read_all_members(label) == source.read_all_members(label)
    assert target.export_state().keys() == exported.keys()
