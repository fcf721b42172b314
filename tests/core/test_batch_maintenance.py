"""Tests for the maintainers' batch APIs (batch-apply, batched reads, removal)."""

from __future__ import annotations

import pytest

from repro.core.maintainers import (
    MAINTAINERS,
    HazyEagerMaintainer,
    NaiveEagerMaintainer,
    build_maintainer,
)
from repro.core.stores import InMemoryEntityStore, OnDiskEntityStore
from repro.core.view import view_contents
from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.costmodel import CostModel
from repro.exceptions import KeyNotFoundError
from repro.learn.sgd import SGDTrainer, TrainingExample

CELLS = sorted(f"{strategy}-{approach}" for strategy, approach in MAINTAINERS)


def factory_for(name):
    """A maintainer factory for the ``"<strategy>-<approach>"`` cell of the declared matrix."""
    strategy, approach = name.split("-")
    return lambda store: build_maintainer(strategy, approach, store, alpha=1.0)


def make_models(tiny_corpus, count=12):
    """A run of successive model snapshots from incremental training."""
    trainer = SGDTrainer(loss="svm")
    for doc in tiny_corpus[:40]:
        trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))
    models = []
    for doc in tiny_corpus[40 : 40 + count]:
        models.append(trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label)))
    return trainer, models


@pytest.mark.parametrize("name", CELLS)
def test_apply_model_batch_matches_sequential_replay(tiny_entities, tiny_corpus, name):
    factory = factory_for(name)
    trainer, models = make_models(tiny_corpus)
    base_model = SGDTrainer(loss="svm")
    for doc in tiny_corpus[:40]:
        base_model.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))

    sequential = factory(InMemoryEntityStore(feature_norm_q=1.0))
    sequential.bulk_load(tiny_entities, base_model.model)
    for model in models:
        sequential.apply_model(model)

    batched = factory(InMemoryEntityStore(feature_norm_q=1.0))
    batched.bulk_load(tiny_entities, base_model.model)
    batched.apply_model_batch(models)

    oracle = view_contents(tiny_entities, models[-1])
    assert batched.contents() == oracle
    assert sequential.contents() == oracle


def test_eager_batch_is_cheaper_than_replay(tiny_entities, tiny_corpus):
    _, models = make_models(tiny_corpus)
    base = SGDTrainer(loss="svm")
    for doc in tiny_corpus[:40]:
        base.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))

    replay = HazyEagerMaintainer(InMemoryEntityStore(feature_norm_q=1.0), alpha=1.0)
    replay.bulk_load(tiny_entities, base.model)
    replay_start = replay.store.cost_snapshot()
    for model in models:
        replay.apply_model(model)
    replay_cost = replay.store.cost_snapshot() - replay_start

    batched = HazyEagerMaintainer(InMemoryEntityStore(feature_norm_q=1.0), alpha=1.0)
    batched.bulk_load(tiny_entities, base.model)
    batch_start = batched.store.cost_snapshot()
    batched.apply_model_batch(models)
    batch_cost = batched.store.cost_snapshot() - batch_start

    # One cumulative-band pass must beat twelve per-model band passes.
    assert batch_cost < replay_cost


@pytest.mark.parametrize("name", CELLS)
def test_read_many_matches_read_single(tiny_entities, tiny_corpus, name):
    factory = factory_for(name)
    trainer, models = make_models(tiny_corpus)
    maintainer = factory(InMemoryEntityStore(feature_norm_q=1.0))
    maintainer.bulk_load(tiny_entities, trainer.model)
    for model in models[:3]:
        maintainer.apply_model(model)

    ids = [entity_id for entity_id, _ in tiny_entities][:50]
    batched = maintainer.read_many(ids)
    for entity_id in ids:
        assert batched[entity_id] == maintainer.read_single(entity_id)


def test_read_many_amortizes_statement_overhead(tiny_entities, tiny_corpus):
    trainer, _ = make_models(tiny_corpus)
    loop = HazyEagerMaintainer(InMemoryEntityStore(feature_norm_q=1.0), alpha=1.0)
    loop.bulk_load(tiny_entities, trainer.model)
    ids = [entity_id for entity_id, _ in tiny_entities][:60]
    loop_start = loop.store.cost_snapshot()
    for entity_id in ids:
        loop.read_single(entity_id)
    loop_cost = loop.store.cost_snapshot() - loop_start

    batched = HazyEagerMaintainer(InMemoryEntityStore(feature_norm_q=1.0), alpha=1.0)
    batched.bulk_load(tiny_entities, trainer.model)
    batch_start = batched.store.cost_snapshot()
    batched.read_many(ids)
    batch_cost = batched.store.cost_snapshot() - batch_start

    # Sixty statement dispatches collapse into one.
    assert batch_cost < loop_cost / 10
    assert batched.stats.batch_rounds == 1
    assert batched.stats.batched_reads == len(ids)


def test_read_many_coalesces_into_a_scan_on_disk(tiny_entities, tiny_corpus):
    trainer, _ = make_models(tiny_corpus)
    pool = BufferPool(CostModel(), capacity_pages=8, statistics=IOStatistics())
    maintainer = NaiveEagerMaintainer(OnDiskEntityStore(pool=pool, feature_norm_q=1.0))
    maintainer.bulk_load(tiny_entities, trainer.model)
    ids = [entity_id for entity_id, _ in tiny_entities]  # every entity: scan wins
    expected = {entity_id: maintainer.store.get(entity_id).label for entity_id in ids}
    start_random = maintainer.store.stats.random_reads
    results = maintainer.read_many(ids)
    assert results == expected
    # The batch was served by one sequential pass, not per-entity random I/O.
    assert maintainer.store.stats.random_reads == start_random


@pytest.mark.parametrize("architecture", ["mainmemory", "ondisk"])
def test_read_many_leaves_unknown_ids_out(tiny_entities, tiny_corpus, architecture):
    """Point lookups on main memory, one shared scan on disk: either way an
    unknown id is absent from the answer, and a Single Entity read of it raises."""
    trainer, _ = make_models(tiny_corpus)
    if architecture == "mainmemory":
        store = InMemoryEntityStore(feature_norm_q=1.0)
    else:
        pool = BufferPool(CostModel(), capacity_pages=8, statistics=IOStatistics())
        store = OnDiskEntityStore(pool=pool, feature_norm_q=1.0)
    maintainer = NaiveEagerMaintainer(store)
    maintainer.bulk_load(tiny_entities, trainer.model)
    ids = [entity_id for entity_id, _ in tiny_entities]
    known = ids[:3] if architecture == "mainmemory" else ids  # every entity: scan wins
    expected = {entity_id: store.get(entity_id).label for entity_id in known}
    assert maintainer.read_many([*known, "definitely-not-there"]) == expected
    with pytest.raises(KeyNotFoundError, match="no entity with id 'definitely-not-there'"):
        maintainer.read_single("definitely-not-there")


@pytest.mark.parametrize(
    "store_factory",
    [
        lambda: InMemoryEntityStore(feature_norm_q=1.0),
        lambda: OnDiskEntityStore(
            pool=BufferPool(CostModel(), capacity_pages=16, statistics=IOStatistics()),
            feature_norm_q=1.0,
        ),
    ],
    ids=["mainmemory", "ondisk"],
)
def test_remove_entity(tiny_entities, tiny_corpus, store_factory):
    trainer, _ = make_models(tiny_corpus)
    maintainer = HazyEagerMaintainer(store_factory(), alpha=1.0)
    maintainer.bulk_load(tiny_entities, trainer.model)
    victim = tiny_entities[3][0]
    count_before = maintainer.store.count()
    maintainer.remove_entity(victim)
    assert maintainer.store.count() == count_before - 1
    with pytest.raises(KeyNotFoundError):
        maintainer.store.get(victim)
    assert victim not in maintainer.contents()
    # Membership counts reflect the removal.
    assert len(maintainer.read_all_members(1)) + len(maintainer.read_all_members(-1)) == (
        count_before - 1
    )
