"""Shared fixtures for the serving-subsystem tests.

A test server serves a classification view ``docs`` over two engine tables:
``entities`` holds each corpus document's features as JSON (read back by the
pre-featurized column :class:`~tests.db.test_sql_plan.PreFeaturizedColumn`)
and ``examples`` a warm sample of the corpus's labels.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import Database, HazyEngine
from repro.core.maintainers import HazyEagerMaintainer
from repro.core.stores import InMemoryEntityStore
from repro.core.view import ClassificationViewDefinition
from repro.learn.model import LinearModel
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.persist import load_checkpoint
from repro.persist.snapshot import encode_vector
from repro.serve import ViewServer
from repro.workloads.synth_text import SparseCorpusGenerator

from tests.db.test_sql_plan import PreFeaturizedColumn

VIEW = "docs"
BASE_TABLES = {
    "entities": "CREATE TABLE entities (id integer PRIMARY KEY, features text)",
    "examples": "CREATE TABLE examples (id integer, label integer)",
}
DDL = (
    f"CREATE CLASSIFICATION VIEW {VIEW} KEY id ENTITIES FROM entities KEY id "
    "EXAMPLES FROM examples KEY id LABEL label FEATURE FUNCTION corpus_features USING SVM"
)
#: Main-memory eager shards, the view's own cell.
FACTORIES = {
    "store_factory": lambda: InMemoryEntityStore(feature_norm_q=1.0),
    "maintainer_factory": lambda store: HazyEagerMaintainer(store, alpha=1.0),
}


@pytest.fixture
def serve_corpus() -> list:
    """A deterministic corpus sized for concurrency tests."""
    generator = SparseCorpusGenerator(
        vocabulary_size=250, nonzeros_per_document=10, positive_fraction=0.4, seed=13
    )
    return generator.generate_list(240)


def warm_sample(corpus, count: int = 60, seed: int = 2) -> list:
    """The documents a warm model is trained on, in training order."""
    rng = random.Random(seed)
    return [corpus[rng.randrange(len(corpus))] for _ in range(count)]


def warm_trainer_for(corpus, count: int = 60, seed: int = 2) -> SGDTrainer:
    """An SGD trainer warmed on a sample of the corpus (the test view's model)."""
    trainer = SGDTrainer(loss="svm")
    for doc in warm_sample(corpus, count, seed):
        trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))
    return trainer


def entity_row(entity_id, features) -> dict:
    """An ``entities`` row carrying ``features`` as JSON."""
    return {"id": entity_id, "features": json.dumps(encode_vector(features))}


def corpus_engine(database: Database, feature_function=PreFeaturizedColumn) -> HazyEngine:
    """A main-memory eager engine over ``database`` that knows ``corpus_features``."""
    engine = HazyEngine(database)
    engine.registry.register("corpus_features", feature_function)
    return engine


def copy_base_tables(database: Database) -> Database:
    """A fresh database holding the rows ``database``'s base tables hold now."""
    copy = Database()
    for name, ddl in BASE_TABLES.items():
        copy.execute(ddl)
        table = copy.table(name)
        for row in database.table(name).scan():
            table.insert(row)
    return copy


def build_corpus_server(
    corpus, shards: int = 4, feature_function=PreFeaturizedColumn, **options
) -> ViewServer:
    """A ViewServer over the view ``docs`` of the corpus (main-memory eager
    shards unless ``store_factory`` / ``maintainer_factory`` say otherwise).

    The view's model is :func:`warm_trainer_for`'s: the examples table holds
    its sample, which the view absorbs in the same order when it is created.
    """
    database = Database()
    for ddl in BASE_TABLES.values():
        database.execute(ddl)
    entities, examples = database.table("entities"), database.table("examples")
    for doc in corpus:
        entities.insert(entity_row(doc.entity_id, doc.features))
    for doc in warm_sample(corpus):
        examples.insert({"id": doc.entity_id, "label": doc.label})
    engine = corpus_engine(database, feature_function)
    database.execute(DDL)
    return ViewServer(engine.view(VIEW), shards=shards, **{**FACTORIES, **options})


def record_epoch_models(server: ViewServer) -> dict[int, LinearModel]:
    """Epoch -> the model ``server`` published at it, from its current epoch on.

    A server keeps only its newest published state, so an oracle that checks
    an epoch-tagged read against that epoch's model records the models here:
    ``publish_epoch``, the one place an epoch is made, is wrapped to note the
    model it swapped in, under the write lock it runs under.
    """
    models = {server.epoch: server.published.model}
    publish_epoch = server.publish_epoch

    def recording(*args, **kwargs) -> int:
        epoch = publish_epoch(*args, **kwargs)
        models[epoch] = server.published.model
        return epoch

    server.publish_epoch = recording
    return models


def restore_by_sql(database: Database, path) -> ViewServer:
    """``RESTORE VIEW docs`` on a fresh engine over a copy of ``database``'s
    base tables: the front door, its replay of the base-table churn included."""
    engine = corpus_engine(copy_base_tables(database))
    engine.database.execute(f"RESTORE VIEW {VIEW} FROM '{path}'")
    return engine.view(VIEW).server


def restore_directly(database: Database, path, **options) -> ViewServer:
    """``ViewServer.restore`` of the checkpoint at ``path``, nothing replayed:
    the view is rebuilt from the snapshot as ``RESTORE VIEW`` rebuilds it, over
    a copy of ``database``'s base tables, and ``options`` may name shard
    factories of their own."""
    checkpoint = load_checkpoint(path)
    manifest = checkpoint.manifest
    engine = corpus_engine(copy_base_tables(database))
    view = engine._build_view(
        ClassificationViewDefinition(**manifest.definition),
        checkpoint.feature_function,
        manifest.positive_label,
        restored=True,
    )
    return ViewServer.restore(checkpoint, view, **{**FACTORIES, **options})


@pytest.fixture
def corpus_server(serve_corpus):
    server = build_corpus_server(serve_corpus)
    yield server
    server.close(timeout=30)
