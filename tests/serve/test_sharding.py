"""Unit tests for hash partitioning and scatter/gather reads."""

from __future__ import annotations

import threading

import pytest

from repro.core.maintainers import HazyEagerMaintainer, HazyLazyMaintainer
from repro.core.stores import InMemoryEntityStore
from repro.core.view import view_contents
from repro.exceptions import KeyNotFoundError
from repro.learn.model import sign
from repro.serve.sharding import ShardSet, shard_index

from tests.serve.conftest import warm_trainer_for


def build_shard_set(corpus, num_shards=4, maintainer_cls=HazyEagerMaintainer):
    trainer = warm_trainer_for(corpus)
    shard_set = ShardSet.build(
        [(doc.entity_id, doc.features) for doc in corpus],
        trainer.model,
        store_factory=lambda: InMemoryEntityStore(feature_norm_q=1.0),
        maintainer_factory=lambda store: maintainer_cls(store, alpha=1.0),
        num_shards=num_shards,
    )
    return shard_set, trainer


def test_partitioning_covers_every_entity(serve_corpus):
    shard_set, _ = build_shard_set(serve_corpus)
    assert shard_set.count() == len(serve_corpus)
    per_shard = [shard.maintainer.store.count() for shard in shard_set.shards]
    assert sum(per_shard) == len(serve_corpus)
    assert all(count > 0 for count in per_shard)  # hash spread, not skewed to one
    for doc in serve_corpus:
        owner = shard_set.shard_for(doc.entity_id)
        assert owner.index == shard_index(doc.entity_id, len(shard_set))
        assert owner.maintainer.store.get(doc.entity_id).entity_id == doc.entity_id


@pytest.mark.parametrize("maintainer_cls", [HazyEagerMaintainer, HazyLazyMaintainer])
def test_scatter_gather_matches_oracle(serve_corpus, maintainer_cls):
    shard_set, trainer = build_shard_set(serve_corpus, maintainer_cls=maintainer_cls)
    oracle = view_contents([(doc.entity_id, doc.features) for doc in serve_corpus], trainer.model)
    assert shard_set.contents() == oracle
    expected_positive = sorted(k for k, v in oracle.items() if v == 1)
    assert sorted(shard_set.all_members(1)) == expected_positive
    expected_negative = sorted(k for k, v in oracle.items() if v == -1)
    assert sorted(shard_set.all_members(-1)) == expected_negative
    batch = [doc.entity_id for doc in serve_corpus[:50]]
    assert shard_set.read_batch(batch) == {key: oracle[key] for key in batch}


def test_a_round_with_an_unknown_id_is_one_statement(serve_corpus):
    """An unknown id leaves its round one statement: the known ids are answered
    by the same ``read_many``, the unknown one gets its error as a value."""
    shard_set, trainer = build_shard_set(serve_corpus, num_shards=1)
    store = shard_set.shards[0].maintainer.store
    known = [doc.entity_id for doc in serve_corpus[:5]]
    before = store.stats.detail.get("statement", 0.0)
    answers = shard_set.read_batch([*known, "no-such-id"])
    charged = store.stats.detail.get("statement", 0.0) - before
    assert charged == pytest.approx(store.cost_model.statement_overhead)
    features = {doc.entity_id: doc.features for doc in serve_corpus}
    assert {key: answers[key] for key in known} == {
        key: sign(trainer.model.margin(features[key])) for key in known
    }
    error = answers["no-such-id"]
    assert isinstance(error, KeyNotFoundError)
    assert str(error) == "no entity with id 'no-such-id'"


def test_top_k_is_globally_ranked(serve_corpus):
    shard_set, trainer = build_shard_set(serve_corpus)
    margins = {doc.entity_id: trainer.model.margin(doc.features) for doc in serve_corpus}
    top = shard_set.top_k(10, label=1)
    assert len(top) == 10
    expected_ids = [
        entity_id for entity_id, _ in sorted(margins.items(), key=lambda kv: -kv[1])[:10]
    ]
    got_margins = [margin for _, margin in top]
    assert got_margins == sorted(got_margins, reverse=True)
    assert sorted(entity_id for entity_id, _ in top) == sorted(expected_ids)
    bottom = shard_set.top_k(5, label=-1)
    bottom_margins = [margin for _, margin in bottom]
    assert bottom_margins == sorted(bottom_margins)  # most negative first


def test_model_batch_and_entity_churn(serve_corpus):
    shard_set, trainer = build_shard_set(serve_corpus)
    models = []
    for doc in serve_corpus[:20]:
        from repro.learn.sgd import TrainingExample

        models.append(trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label)))
    shard_set.apply_model_batch(models)
    final = trainer.model
    oracle = view_contents([(doc.entity_id, doc.features) for doc in serve_corpus], final)
    assert shard_set.contents() == oracle

    extra = serve_corpus[0].features
    label = shard_set.add_entity("fresh", extra)
    assert label == sign(final.margin(extra))
    assert shard_set.count() == len(serve_corpus) + 1
    shard_set.remove_entity("fresh")
    assert shard_set.count() == len(serve_corpus)


def test_operations_on_one_shard_never_overlap(serve_corpus):
    """A shard's lock serializes its operations: while one caller is inside
    the shard, another caller's read of it waits."""
    inside = threading.Event()
    release = threading.Event()

    class Parking(HazyLazyMaintainer):
        def read_all_members(self, label=1):
            if not inside.is_set():
                inside.set()
                release.wait(timeout=30)
            return super().read_all_members(label)

    shard_set, _ = build_shard_set(serve_corpus, num_shards=1, maintainer_cls=Parking)
    gather = threading.Thread(target=shard_set.all_members)
    gather.start()
    assert inside.wait(timeout=30)
    point = threading.Thread(target=shard_set.read_batch, args=([serve_corpus[0].entity_id],))
    point.start()
    point.join(timeout=0.2)
    overlapped = not point.is_alive()
    release.set()
    gather.join(timeout=30)
    point.join(timeout=30)
    assert not gather.is_alive() and not point.is_alive()
    assert not overlapped, "a read entered a shard another caller was inside"
