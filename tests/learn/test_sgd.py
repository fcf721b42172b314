"""Unit tests for the SGD trainer."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector


def xor_free_examples() -> list[TrainingExample]:
    """A tiny linearly separable problem: label = sign of feature 0."""
    return [
        TrainingExample(0, SparseVector({0: 1.0}), 1),
        TrainingExample(1, SparseVector({0: 2.0}), 1),
        TrainingExample(2, SparseVector({0: -1.0}), -1),
        TrainingExample(3, SparseVector({0: -2.0}), -1),
        TrainingExample(4, SparseVector({0: 1.5, 1: 0.5}), 1),
        TrainingExample(5, SparseVector({0: -1.5, 1: 0.5}), -1),
    ]


class TestTrainingExample:
    def test_invalid_label_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingExample(0, SparseVector({0: 1.0}), 2)

    def test_valid_labels(self):
        assert TrainingExample(0, SparseVector(), 1).label == 1
        assert TrainingExample(0, SparseVector(), -1).label == -1


class TestConstruction:
    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigurationError):
            SGDTrainer(learning_rate=0.0)

    def test_invalid_decay(self):
        with pytest.raises(ConfigurationError):
            SGDTrainer(decay=-1.0)

    def test_initial_model_is_zero(self):
        model = SGDTrainer().model
        assert model.weights.nnz() == 0 and model.bias == 0.0


def model_bits(model) -> tuple:
    """A model as exact bits: ordered ``(index, value.hex())`` weights, bias, version."""
    return [(i, v.hex()) for i, v in model.weights.items()], model.bias.hex(), model.version


class TestIncrementalTraining:
    def test_absorb_returns_snapshot(self):
        trainer = SGDTrainer()
        snapshot = trainer.absorb(TrainingExample(0, SparseVector({0: 1.0}), 1))
        before = model_bits(snapshot)
        trainer.absorb(TrainingExample(1, SparseVector({0: 1.0, 1: 2.0}), -1))
        assert model_bits(snapshot) == before
        assert snapshot.version == 1

    def test_absorb_builds_one_new_weights_array(self):
        trainer = SGDTrainer()
        trainer.absorb(TrainingExample(0, SparseVector({0: 1.0}), 1))
        before = trainer.model
        kept = before.weights.array.tolist()
        after = trainer.absorb(TrainingExample(1, SparseVector({0: -1.0, 3: 2.0}), -1))
        assert after is trainer.model
        assert after is not before and after.weights.array is not before.weights.array
        assert before.weights.array.tolist() == kept
        assert len(after.weights.array) == 4 and not after.weights.array.flags.writeable

    def test_load_state_keeps_the_model_it_is_given(self):
        trainer = SGDTrainer()
        model = SGDTrainer().absorb(TrainingExample(0, SparseVector({0: 1.0}), 1))
        before = model_bits(model)
        trainer.load_state(model)
        assert trainer.model is model
        trainer.absorb(TrainingExample(1, SparseVector({0: 1.0}), -1))
        assert model_bits(model) == before

    def test_version_counts_examples(self):
        trainer = SGDTrainer()
        trainer.absorb_many(xor_free_examples())
        assert trainer.model.version == len(xor_free_examples())
        assert trainer.steps == len(xor_free_examples())

    def test_positive_example_moves_margin_up(self):
        trainer = SGDTrainer(loss="svm", learning_rate=0.5, decay=0.0, regularization=0.0)
        example = TrainingExample(0, SparseVector({0: 1.0}), 1)
        before = trainer.model.margin(example.features)
        trainer.absorb(example)
        after = trainer.model.margin(example.features)
        assert after > before

    def test_negative_example_moves_margin_down(self):
        trainer = SGDTrainer(loss="svm", learning_rate=0.5, decay=0.0, regularization=0.0)
        example = TrainingExample(0, SparseVector({0: 1.0}), -1)
        before = trainer.model.margin(example.features)
        trainer.absorb(example)
        assert trainer.model.margin(example.features) < before

    def test_learning_rate_decays(self):
        trainer = SGDTrainer(learning_rate=1.0, decay=1.0)
        assert trainer.current_step_size() == pytest.approx(1.0)
        trainer.absorb(TrainingExample(0, SparseVector({0: 1.0}), 1))
        assert trainer.current_step_size() == pytest.approx(0.5)

    def test_zero_gradient_leaves_weights_unchanged_except_regularization(self):
        trainer = SGDTrainer(loss="svm", learning_rate=0.1, decay=0.0, regularization=0.0)
        # Make the example easily satisfied, then absorb it again.
        example = TrainingExample(0, SparseVector({0: 1.0}), 1)
        for _ in range(30):
            trainer.absorb(example)
        weights_before = dict(trainer.model.weights.items())
        trainer.absorb(example)
        assert dict(trainer.model.weights.items()) == pytest.approx(weights_before)

    def test_reset_clears_model(self):
        trainer = SGDTrainer()
        trainer.absorb(TrainingExample(0, SparseVector({0: 1.0}), 1))
        trainer.reset()
        assert trainer.model.weights.nnz() == 0 and trainer.model.bias == 0.0
        assert trainer.steps == 0


class TestBatchTraining:
    def test_fit_separates_separable_data(self):
        trainer = SGDTrainer(loss="svm", learning_rate=0.5, decay=0.0)
        examples = xor_free_examples()
        trainer.fit(examples, epochs=20)
        assert all(trainer.predict(ex.features) == ex.label for ex in examples)

    def test_fit_requires_positive_epochs(self):
        with pytest.raises(ConfigurationError):
            SGDTrainer().fit(xor_free_examples(), epochs=0)

    def test_average_loss_decreases_with_training(self):
        examples = xor_free_examples()
        trainer = SGDTrainer(loss="svm", learning_rate=0.5, decay=0.0)

        def mean_loss() -> float:
            losses = [
                trainer.loss.value(trainer.model.margin(ex.features), float(ex.label))
                for ex in examples
            ]
            return sum(losses) / len(losses)

        initial = mean_loss()
        trainer.fit(examples, epochs=20)
        assert mean_loss() < initial

    def test_logistic_loss_also_learns(self):
        trainer = SGDTrainer(loss="logistic", learning_rate=1.0, decay=0.0)
        examples = xor_free_examples()
        trainer.fit(examples, epochs=30)
        assert all(trainer.predict(ex.features) == ex.label for ex in examples)

    def test_learns_synthetic_corpus_reasonably(self, tiny_corpus, example_factory):
        """On the synthetic corpus, training beats the majority-class baseline."""
        trainer = SGDTrainer(loss="svm", seed=1)
        trainer.fit(example_factory(tiny_corpus, 300, seed=2), epochs=3)
        correct = sum(
            1 for doc in tiny_corpus if trainer.predict(doc.features) == doc.label
        )
        majority = max(
            sum(1 for d in tiny_corpus if d.label == 1),
            sum(1 for d in tiny_corpus if d.label == -1),
        )
        assert correct > majority
