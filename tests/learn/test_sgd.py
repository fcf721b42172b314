"""Unit tests for the SGD trainer."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.learn import sgd
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
    def test_the_first_step_is_the_learning_rate(self):
        assert sgd.LEARNING_RATE > 0
        assert SGDTrainer().current_step_size() == sgd.LEARNING_RATE

    def test_the_step_size_never_grows(self):
        assert sgd.DECAY >= 0
        trainer = SGDTrainer()
        trainer.load_state(trainer.model, steps=100)
        assert 0 < trainer.current_step_size() <= sgd.LEARNING_RATE

    def test_the_penalty_is_l2_at_the_constant_strength(self):
        assert SGDTrainer().penalty.strength == sgd.REGULARIZATION

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

    def test_positive_example_moves_margin_up(self, sgd_constants):
        sgd_constants(LEARNING_RATE=0.5, DECAY=0.0, REGULARIZATION=0.0)
        trainer = SGDTrainer(loss="svm")
        example = TrainingExample(0, SparseVector({0: 1.0}), 1)
        before = trainer.model.margin(example.features)
        trainer.absorb(example)
        after = trainer.model.margin(example.features)
        assert after > before

    def test_negative_example_moves_margin_down(self, sgd_constants):
        sgd_constants(LEARNING_RATE=0.5, DECAY=0.0, REGULARIZATION=0.0)
        trainer = SGDTrainer(loss="svm")
        example = TrainingExample(0, SparseVector({0: 1.0}), -1)
        before = trainer.model.margin(example.features)
        trainer.absorb(example)
        assert trainer.model.margin(example.features) < before

    def test_learning_rate_decays(self, sgd_constants):
        sgd_constants(LEARNING_RATE=1.0, DECAY=1.0)
        trainer = SGDTrainer()
        assert trainer.current_step_size() == pytest.approx(1.0)
        trainer.absorb(TrainingExample(0, SparseVector({0: 1.0}), 1))
        assert trainer.current_step_size() == pytest.approx(0.5)

    def test_zero_gradient_leaves_weights_unchanged_except_regularization(self, sgd_constants):
        sgd_constants(LEARNING_RATE=0.1, DECAY=0.0, REGULARIZATION=0.0)
        trainer = SGDTrainer(loss="svm")
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


class TestRepeatedPasses:
    """Passes over a fixed example list, absorbed in order."""

    def test_passes_separate_separable_data(self, sgd_constants):
        sgd_constants(LEARNING_RATE=0.5, DECAY=0.0)
        trainer = SGDTrainer(loss="svm")
        examples = xor_free_examples()
        trainer.absorb_many(examples * 20)
        assert all(trainer.predict(ex.features) == ex.label for ex in examples)

    def test_average_loss_decreases_with_training(self, sgd_constants):
        examples = xor_free_examples()
        sgd_constants(LEARNING_RATE=0.5, DECAY=0.0)
        trainer = SGDTrainer(loss="svm")

        def mean_loss() -> float:
            losses = [
                trainer.loss.value(trainer.model.margin(ex.features), float(ex.label))
                for ex in examples
            ]
            return sum(losses) / len(losses)

        initial = mean_loss()
        trainer.absorb_many(examples * 20)
        assert mean_loss() < initial

    def test_logistic_loss_also_learns(self, sgd_constants):
        sgd_constants(LEARNING_RATE=1.0, DECAY=0.0)
        trainer = SGDTrainer(loss="logistic")
        examples = xor_free_examples()
        trainer.absorb_many(examples * 30)
        assert all(trainer.predict(ex.features) == ex.label for ex in examples)

    def test_learns_synthetic_corpus_reasonably(self, tiny_corpus, example_factory):
        """On the synthetic corpus, training beats the majority-class baseline."""
        trainer = SGDTrainer(loss="svm")
        trainer.absorb_many(example_factory(tiny_corpus, 300, seed=2) * 3)
        correct = sum(
            1 for doc in tiny_corpus if trainer.predict(doc.features) == doc.label
        )
        majority = max(
            sum(1 for d in tiny_corpus if d.label == 1),
            sum(1 for d in tiny_corpus if d.label == -1),
        )
        assert correct > majority
