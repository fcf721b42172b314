"""The strategy × approach × architecture matrix is declared once, and is complete.

``repro.core.maintainers.MAINTAINERS`` and ``repro.core.stores.STORES`` are
the tables; the engine, the bench harness and the checkpoint manifest read
them.  These tests pin that every name the engine accepts builds, that the
names survive a checkpoint, and that the cells really are implementations of
one skeleton (no cell re-defines a skeleton operation; an Update is a batch of
one in every cell).
"""

from __future__ import annotations

import itertools

import pytest

from repro import Database, HazyEngine
from repro.bench.harness import build_store
from repro.core.maintainers import (
    APPROACHES,
    MAINTAINERS,
    STRATEGIES,
    ViewMaintainer,
    build_maintainer,
)
from repro.core.stores import ARCHITECTURES, STORES, EntityStore
from repro.exceptions import ConfigurationError, SnapshotMismatchError
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.persist import load_checkpoint

from tests.persist.test_checkpoint_restore import build_engine_database, cold_engine

CELLS = list(itertools.product(ARCHITECTURES, STRATEGIES, APPROACHES))


def test_the_matrix_is_the_full_grid():
    assert set(MAINTAINERS) == set(itertools.product(STRATEGIES, APPROACHES))
    assert set(STRATEGIES) == {"hazy", "naive"}
    assert set(APPROACHES) == {"eager", "lazy"}
    assert ARCHITECTURES == ("mainmemory", "ondisk", "hybrid")
    for (strategy, approach), cls in MAINTAINERS.items():
        assert (cls.strategy_name, cls.approach) == (strategy, approach)
    for name, cls in STORES.items():
        assert cls.architecture == name


@pytest.mark.parametrize(("architecture", "strategy", "approach"), CELLS)
def test_every_name_the_engine_accepts_builds(architecture, strategy, approach):
    engine = HazyEngine(
        Database(), architecture=architecture, strategy=strategy, approach=approach
    )
    store = engine._build_store(1.0)
    maintainer = engine._build_maintainer(store)
    assert type(store) is STORES[architecture]
    assert store.architecture == architecture
    assert type(maintainer) is MAINTAINERS[strategy, approach]
    assert type(build_store(architecture)) is STORES[architecture]


@pytest.mark.parametrize(
    "bad", [{"architecture": "floppy"}, {"strategy": "psychic"}, {"approach": "sometimes"}]
)
def test_names_outside_the_matrix_are_rejected(bad):
    with pytest.raises(ConfigurationError):
        HazyEngine(Database(), **bad)


def test_build_maintainer_rejects_an_unknown_cell():
    with pytest.raises(ConfigurationError):
        build_maintainer("hazy", "sometimes", build_store("mainmemory"))


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_checkpoint_restore_round_trips_the_architecture_name(architecture, tiny_corpus, tmp_path):
    engine = cold_engine(tiny_corpus, architecture=architecture)
    server = engine.serve("Labeled_Papers")
    server.flush()
    before = server.contents()
    server.checkpoint(tmp_path / "ckpt")
    server.close()
    assert load_checkpoint(tmp_path / "ckpt").manifest.architecture == architecture

    restart = HazyEngine(build_engine_database(tiny_corpus), architecture=architecture)
    restored = restart.restore("Labeled_Papers", tmp_path / "ckpt")
    try:
        assert restored.contents() == before
    finally:
        restored.close()

    other = next(name for name in ARCHITECTURES if name != architecture)
    mismatched = HazyEngine(build_engine_database(tiny_corpus), architecture=other)
    with pytest.raises(SnapshotMismatchError, match="architecture"):
        mismatched.restore("Labeled_Papers", tmp_path / "ckpt")


@pytest.mark.parametrize("cls", MAINTAINERS.values(), ids=lambda cls: cls.__name__)
def test_no_cell_redefines_a_skeleton_operation(cls):
    for operation in ("read_single", "read_range", "read_many", "contents", "top_k"):
        assert getattr(cls, operation) is getattr(ViewMaintainer, operation)


def test_a_store_that_omits_delete_or_import_cannot_be_instantiated():
    required = EntityStore.__abstractmethods__
    assert {"delete", "_import_records"} <= required
    for omitted in ("delete", "_import_records"):
        stubs = {name: lambda self, *args: None for name in required - {omitted}}
        incomplete = type("IncompleteStore", (EntityStore,), stubs)
        with pytest.raises(TypeError, match=omitted):
            incomplete(None, None)


@pytest.mark.parametrize(("architecture", "strategy", "approach"), CELLS)
def test_an_update_is_a_batch_of_one(architecture, strategy, approach, tiny_corpus, tiny_entities):
    """``apply_model(m)`` and ``apply_model_batch([m])`` leave the same ledger."""

    def run(update):
        trainer = SGDTrainer(loss="svm")
        maintainer = build_maintainer(
            strategy, approach, build_store(architecture, buffer_pool_pages=8), alpha=0.5
        )
        maintainer.bulk_load(tiny_entities, trainer.model)
        clock = []
        for doc in tiny_corpus[:40]:
            model = trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))
            update(maintainer, model)
            clock.append(repr(maintainer.store.stats.simulated_seconds))
        members = maintainer.read_all_members(1)
        return clock, maintainer.store.stats.detail, maintainer.stats, members

    single = run(lambda maintainer, model: maintainer.apply_model(model))
    batch = run(lambda maintainer, model: maintainer.apply_model_batch([model]))
    assert single == batch
