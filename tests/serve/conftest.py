"""Shared fixtures for the serving-subsystem tests."""

from __future__ import annotations

import random

import pytest

from repro.core.maintainers import HazyEagerMaintainer
from repro.core.stores import InMemoryEntityStore
from repro.core.writes import ViewWriter
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.serve import ViewServer
from repro.workloads.synth_text import SparseCorpusGenerator


@pytest.fixture
def serve_corpus() -> list:
    """A deterministic corpus sized for concurrency tests."""
    generator = SparseCorpusGenerator(
        vocabulary_size=250, nonzeros_per_document=10, positive_fraction=0.4, seed=13
    )
    return generator.generate_list(240)


def warm_trainer_for(corpus, count: int = 60, seed: int = 2) -> SGDTrainer:
    """An SGD trainer warmed on a sample of the corpus."""
    trainer = SGDTrainer(loss="svm", seed=1)
    rng = random.Random(seed)
    for _ in range(count):
        doc = corpus[rng.randrange(len(corpus))]
        trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))
    return trainer


def build_standalone_server(
    corpus, num_shards: int = 4, feature_function=None, **server_options
) -> ViewServer:
    """A ViewServer over the corpus, no database attached (main-memory eager
    shards unless ``store_factory`` / ``maintainer_factory`` say otherwise)."""
    trainer = warm_trainer_for(corpus)
    server_options.setdefault("store_factory", lambda: InMemoryEntityStore(feature_norm_q=1.0))
    server_options.setdefault(
        "maintainer_factory", lambda store: HazyEagerMaintainer(store, alpha=1.0)
    )
    return ViewServer(
        entities=[(doc.entity_id, doc.features) for doc in corpus],
        model=trainer.model,
        writer=ViewWriter(trainer, feature_function),
        num_shards=num_shards,
        **server_options,
    )


@pytest.fixture
def standalone_server(serve_corpus):
    server = build_standalone_server(serve_corpus)
    yield server
    server.close(timeout=30)
