"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.learn import sgd
from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector
from repro.workloads.datasets import dblife_like
from repro.workloads.synth_text import SparseCorpusGenerator


def net_of_statements(server) -> float:
    """Simulated seconds on the server's shard ledgers, less their ``statement`` charges."""
    return sum(
        ledger.simulated_seconds - ledger.detail.get("statement", 0.0)
        for ledger in server.ledgers()
    )


@pytest.fixture
def sgd_constants(monkeypatch):
    """Set :mod:`repro.learn.sgd`'s constants for this test:
    ``sgd_constants(LEARNING_RATE=0.5, DECAY=0.0)``.

    A trainer reads them when it is built and when it steps, so set them
    before building the trainer.
    """

    def patch(**values) -> None:
        for name, value in values.items():
            assert hasattr(sgd, name), name
            monkeypatch.setattr(sgd, name, value)

    return patch


@pytest.fixture
def simple_model() -> LinearModel:
    """The model of the paper's Example 2.2: w = (-1, 1), b = 0.5."""
    return LinearModel(weights=Weights.of(SparseVector({0: -1.0, 1: 1.0})), bias=0.5, version=1)


@pytest.fixture
def example_paper_vectors() -> dict[str, SparseVector]:
    """The five papers of Figure 1(A), P1..P5."""
    return {
        "P1": SparseVector({0: 3.0, 1: 4.0}),
        "P2": SparseVector({0: 5.0, 1: 4.0}),
        "P3": SparseVector({0: 1.0, 1: 2.0}),
        "P4": SparseVector({0: 2.0, 1: 1.0}),
        "P5": SparseVector({0: 5.0, 1: 1.0}),
    }


@pytest.fixture
def tiny_corpus() -> list:
    """A small synthetic document corpus (deterministic)."""
    generator = SparseCorpusGenerator(
        vocabulary_size=200, nonzeros_per_document=10, positive_fraction=0.4, seed=7
    )
    return generator.generate_list(120)


@pytest.fixture
def tiny_entities(tiny_corpus) -> list[tuple[int, SparseVector]]:
    """(id, features) pairs for the tiny corpus."""
    return [(doc.entity_id, doc.features) for doc in tiny_corpus]


@pytest.fixture
def tiny_labels(tiny_corpus) -> dict[int, int]:
    """Ground-truth labels for the tiny corpus."""
    return {doc.entity_id: doc.label for doc in tiny_corpus}


@pytest.fixture
def warm_trainer(tiny_corpus) -> SGDTrainer:
    """An SGD trainer warmed up on a sample of the tiny corpus."""
    trainer = SGDTrainer(loss="svm")
    rng = random.Random(11)
    for _ in range(80):
        doc = tiny_corpus[rng.randrange(len(tiny_corpus))]
        trainer.absorb(TrainingExample(doc.entity_id, doc.features, doc.label))
    return trainer


@pytest.fixture
def small_dataset():
    """A scaled-down DBLife-like generated dataset."""
    return dblife_like(scale=0.12, seed=5)


def make_examples(corpus, count: int, seed: int = 0) -> list[TrainingExample]:
    """Sample labeled training examples from a synthetic corpus."""
    rng = random.Random(seed)
    examples = []
    for _ in range(count):
        doc = corpus[rng.randrange(len(corpus))]
        examples.append(TrainingExample(doc.entity_id, doc.features, doc.label))
    return examples


@pytest.fixture
def example_factory():
    """Expose :func:`make_examples` to tests as a fixture."""
    return make_examples
