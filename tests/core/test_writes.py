"""Unit tests for the one write body, :meth:`repro.core.writes.ViewWriter.prepare`."""

from __future__ import annotations

import pytest

from repro.core.maintainers import HazyEagerMaintainer
from repro.core.stores import InMemoryEntityStore
from repro.core.writes import ViewWriter, WriteKind, apply_writes
from repro.exceptions import ConfigurationError, KeyNotFoundError, MaintenanceError
from repro.features import default_registry
from repro.features.base import FeatureFunction
from repro.learn.sgd import SGDTrainer
from repro.linalg import SparseVector

STORED = {1: SparseVector({0: 1.0}), 2: SparseVector({1: 1.0}), 3: SparseVector({0: 0.5, 2: 0.5})}


def features_of(entity_id):
    try:
        return STORED[entity_id]
    except KeyError:
        raise KeyNotFoundError(f"no entity with id {entity_id!r}") from None


def uncharged(nonzeros):
    raise AssertionError("only entity rows are featurized and charged")


class Given(FeatureFunction):
    """The features an entity row carries in its ``features`` column."""

    name = "given"

    def compute_feature(self, row):
        return row["features"]


def entity(entity_id, features):
    return {"id": entity_id, "features": features}


def example(entity_id, label):
    return {"id": entity_id, "label": label}


@pytest.fixture
def writer():
    writer = ViewWriter(SGDTrainer(loss="svm"), Given())
    prepared = writer.prepare(
        [(WriteKind.EXAMPLE_INSERT, example(1, 1), None), (WriteKind.EXAMPLE_INSERT, example(2, -1), None)],
        features_of,
        uncharged,
    )
    assert not prepared.refused and prepared.training_steps == 2
    return writer


def retained(writer):
    return [(entry.entity_id, entry.label) for entry in writer.examples]


def test_a_refused_write_leaves_no_trace_and_spares_its_neighbours(writer):
    steps = writer.trainer.model.version
    prepared = writer.prepare(
        [
            (WriteKind.EXAMPLE_INSERT, example(3, 1), None),
            (WriteKind.EXAMPLE_INSERT, example(4242, 1), None),  # unknown entity
            (WriteKind.EXAMPLE_INSERT, example(1, "maybe"), None),  # no +-1 reading
            (WriteKind.BARRIER, None, None),
            (WriteKind.EXAMPLE_INSERT, example(2, True), None),
        ],
        features_of,
        uncharged,
    )
    assert sorted(prepared.refused) == [1, 2]
    assert isinstance(prepared.refused[1], MaintenanceError)
    assert "unknown entity 4242" in str(prepared.refused[1])
    assert isinstance(prepared.refused[2], ConfigurationError)
    assert retained(writer) == [(1, 1), (2, -1), (3, 1), (2, 1)]
    assert prepared.training_steps == len(prepared.models) == 2
    assert writer.trainer.model.version == steps + 2


def test_a_run_of_only_refused_writes_changes_nothing(writer):
    before = retained(writer)
    version = writer.trainer.model.version
    prepared = writer.prepare(
        [
            (WriteKind.EXAMPLE_INSERT, example(4242, 1), None),
            # A bad replacement: the old example must survive it, unretrained.
            (WriteKind.EXAMPLE_UPDATE, example(4242, 1), example(1, 1)),
            (WriteKind.EXAMPLE_UPDATE, example(1, 1), example(2, "maybe")),
        ],
        features_of,
        uncharged,
    )
    assert sorted(prepared.refused) == [0, 1, 2]
    assert prepared.entity_ops == [] and prepared.models == [] and prepared.training_steps == 0
    assert retained(writer) == before
    assert writer.trainer.model.version == version


def test_retrain_only_when_an_example_was_actually_forgotten(writer):
    # Rows that were never retained: nothing to forget, so no footnote-2 retrain.
    prepared = writer.prepare(
        [
            (WriteKind.EXAMPLE_DELETE, None, example(3, 1)),
            (WriteKind.EXAMPLE_UPDATE, example(3, -1), example(3, 1)),
        ],
        features_of,
        uncharged,
    )
    assert not prepared.refused
    assert prepared.training_steps == 1 and writer.trainer.model.version == 3
    # A retained one: one model, trained from scratch over what is left.
    prepared = writer.prepare(
        [(WriteKind.EXAMPLE_DELETE, None, example(1, 1))], features_of, uncharged
    )
    assert retained(writer) == [(2, -1), (3, -1)]
    assert len(prepared.models) == 1 and prepared.training_steps == 2
    assert writer.trainer.model.version == 2


def test_entity_churn_inside_a_run_keeps_arrival_order(writer):
    one, two = SparseVector({5: 1.0}), SparseVector({6: 1.0})
    charges: list[int] = []
    prepared = writer.prepare(
        [
            (WriteKind.ENTITY_INSERT, entity("ephemeral", one), None),
            (WriteKind.ENTITY_DELETE, None, entity("ephemeral", one)),
            (WriteKind.ENTITY_INSERT, entity("twice", one), None),
            (WriteKind.ENTITY_UPDATE, entity("twice", two), entity("twice", one)),
        ],
        features_of,
        charges.append,
    )
    assert not prepared.refused and not prepared.models
    assert charges == [1, 1, 1]
    assert prepared.entity_ops == [
        ("add", ("ephemeral", one)),
        ("remove", "ephemeral"),
        ("add", ("twice", one)),
        ("remove", "twice"),
        ("add", ("twice", two)),
    ]
    # The last write to each entity: what a served view hands back on close.
    assert prepared.entity_features == {"ephemeral": None, "twice": two}
    assert prepared.entity_rows == {"ephemeral": None, "twice": entity("twice", two)}
    maintainer = HazyEagerMaintainer(InMemoryEntityStore(feature_norm_q=1.0))
    maintainer.bulk_load(STORED.items(), writer.trainer.model)
    apply_writes(maintainer, prepared.entity_ops, prepared.models)
    assert set(maintainer.contents()) == {1, 2, 3, "twice"}
    assert maintainer.store.get("twice").features == two


def test_an_example_resolves_against_entities_written_earlier_in_the_run(writer):
    fresh = SparseVector({7: 1.0})
    prepared = writer.prepare(
        [
            (WriteKind.ENTITY_INSERT, entity("fresh", fresh), None),
            (WriteKind.EXAMPLE_INSERT, example("fresh", 1), None),
            (WriteKind.ENTITY_DELETE, None, {"id": 3}),
            (WriteKind.EXAMPLE_INSERT, example(3, 1), None),  # deleted one write earlier
        ],
        features_of,
        lambda nonzeros: None,
    )
    assert sorted(prepared.refused) == [3]
    assert writer.examples[-1].entity_id == "fresh" and writer.examples[-1].features is fresh
    assert prepared.entity_ops == [("add", ("fresh", fresh)), ("remove", 3)]


def test_entity_rows_are_featurized_and_charged_once():
    function = default_registry().create("tf_bag_of_words")
    function.compute_stats([])
    writer = ViewWriter(SGDTrainer(), function, entities_key="pid")
    charges: list[int] = []
    prepared = writer.prepare(
        [(WriteKind.ENTITY_INSERT, {"pid": 7, "title": "query plans for views"}, None)],
        features_of,
        charges.append,
    )
    ((action, (entity_id, features)),) = prepared.entity_ops
    assert (action, entity_id) == ("add", 7)
    assert charges == [features.nnz()] and features.nnz() > 0
