"""Batch sub-gradient SVM solver — the stand-in for SVMLight in Figure 10.

The paper compares its incremental SGD-based approach against SVMLight, a
batch solver.  SVMLight itself is closed to this environment, so the
comparison point is reproduced with a Pegasos-style batch solver: full passes
over the training set with a projected sub-gradient step.  What matters for
the Figure 10 reproduction is the *relationship* — a batch solver does far
more work per unit of quality than single-pass SGD — which this preserves.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError
from repro.learn.loss import Loss, get_loss
from repro.learn.model import LinearModel
from repro.learn.regularizers import L2Penalty
from repro.learn.sgd import TrainingExample
from repro.learn.weights import Weights, add_scaled
from repro.linalg import SparseVector

__all__ = ["BatchSubgradientSVM"]


class BatchSubgradientSVM:
    """Full-scan sub-gradient descent for the regularized hinge loss.

    Each iteration computes the exact sub-gradient over *all* training
    examples (this is what makes it a batch method, and what makes it slow
    relative to SGD), then takes a step ``1/(lambda * t)``.
    """

    def __init__(
        self,
        regularization: float = 1e-3,
        iterations: int = 200,
        loss: str | Loss = "svm",
        tolerance: float = 1e-6,
    ):
        if regularization <= 0:
            raise ConfigurationError("regularization must be positive")
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        self.regularization = float(regularization)
        self.iterations = int(iterations)
        self.loss = get_loss(loss)
        self._shrink = L2Penalty(self.regularization)
        self.tolerance = float(tolerance)
        self.model: LinearModel | None = None
        self.objective_trace: list[float] = []
        #: Number of example visits performed during fit (work accounting for Fig 10).
        self.examples_visited = 0

    def objective(self, model: LinearModel, examples: Sequence[TrainingExample]) -> float:
        """Regularized empirical risk of ``model`` on ``examples``."""
        if not examples:
            return 0.0
        risk = sum(
            self.loss.value(model.margin(ex.features), float(ex.label)) for ex in examples
        ) / len(examples)
        return 0.5 * self.regularization * model.norm(2) ** 2 + risk

    def fit(self, examples: Sequence[TrainingExample]) -> LinearModel:
        """Train on ``examples`` with full-batch sub-gradient descent."""
        if not examples:
            raise ConfigurationError("cannot fit on an empty training set")
        model = LinearModel()
        n = len(examples)
        self.objective_trace = []
        self.examples_visited = 0
        previous = float("inf")
        for t in range(1, self.iterations + 1):
            step = 1.0 / (self.regularization * t)
            gradient = np.zeros(0)
            bias_gradient = 0.0
            for example in examples:
                margin = model.margin(example.features)
                g = self.loss.derivative(margin, float(example.label))
                if g != 0.0:
                    gradient = add_scaled(gradient, example.features, g / n)
                    bias_gradient -= g / n
                self.examples_visited += 1
            # w <- (1 - step*lambda) w - step * grad, over the gradient's non-zero cells
            shrunk = self._shrink.shrink(model.weights.array, step)
            weights = add_scaled(shrunk, SparseVector.from_dense(gradient), -step)
            model = LinearModel(Weights(weights), model.bias - step * bias_gradient, t)
            current = self.objective(model, examples)
            self.objective_trace.append(current)
            if abs(previous - current) < self.tolerance:
                break
            previous = current
        self.model = model
        return model

    def predict(self, features: SparseVector) -> int:
        """Label a feature vector with the fitted model."""
        if self.model is None:
            raise NotFittedError("BatchSubgradientSVM.predict called before fit")
        return self.model.predict(features)
