"""Unit tests for the batch learner."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.learn.batch import BatchSubgradientSVM
from repro.learn.sgd import TrainingExample
from repro.linalg import SparseVector


def separable_examples() -> list[TrainingExample]:
    """label = sign of feature 0 (with a distractor feature)."""
    return [
        TrainingExample(0, SparseVector({0: 1.0, 1: 0.3}), 1),
        TrainingExample(1, SparseVector({0: 2.0}), 1),
        TrainingExample(2, SparseVector({0: 0.7, 1: -0.2}), 1),
        TrainingExample(3, SparseVector({0: -1.0, 1: 0.3}), -1),
        TrainingExample(4, SparseVector({0: -2.0}), -1),
        TrainingExample(5, SparseVector({0: -0.7, 1: -0.2}), -1),
    ]


class TestBatchSubgradientSVM:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BatchSubgradientSVM(regularization=0.0)
        with pytest.raises(ConfigurationError):
            BatchSubgradientSVM(iterations=0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchSubgradientSVM().fit([])

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BatchSubgradientSVM().predict(SparseVector({0: 1.0}))

    def test_fits_separable_data(self):
        solver = BatchSubgradientSVM(regularization=1e-2, iterations=100)
        examples = separable_examples()
        solver.fit(examples)
        assert all(solver.predict(ex.features) == ex.label for ex in examples)

    def test_objective_decreases(self):
        solver = BatchSubgradientSVM(regularization=1e-2, iterations=80)
        solver.fit(separable_examples())
        trace = solver.objective_trace
        assert trace[-1] <= trace[0]

    def test_visits_every_example_every_iteration(self):
        solver = BatchSubgradientSVM(regularization=1e-2, iterations=10, tolerance=0.0)
        examples = separable_examples()
        solver.fit(examples)
        assert solver.examples_visited == 10 * len(examples)

    def test_does_far_more_work_than_single_pass_sgd(self):
        """The Figure 10 comparison point: batch solving visits many more examples."""
        solver = BatchSubgradientSVM(regularization=1e-2, iterations=50, tolerance=0.0)
        examples = separable_examples()
        solver.fit(examples)
        assert solver.examples_visited >= 10 * len(examples)
