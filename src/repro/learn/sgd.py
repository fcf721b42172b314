"""Stochastic-gradient trainer (Bottou-style), Hazy's default learner.

The paper's default learning algorithm is stochastic gradient descent because
it examines a small number of training examples per step, has a tiny memory
footprint, and — crucially for view maintenance — updates the model
*incrementally*: each new training example produces the next model
``(w(i+1), b(i+1))`` from ``(w(i), b(i))`` with one gradient step.
Each step builds the next :class:`~repro.learn.model.LinearModel` as a new
value: the regularizer's shrink returns a fresh weight array, the loss step is
written into it, and it is frozen as the next model's weights.  A model the
trainer returned is never changed, so everyone holds it by reference and
nobody copies it.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.learn.loss import Loss, get_loss
from repro.learn.model import LinearModel
from repro.learn.regularizers import Regularizer, get_regularizer
from repro.learn.weights import Weights, add_scaled
from repro.linalg import SparseVector

__all__ = ["TrainingExample", "SGDTrainer"]


@dataclass(frozen=True)
class TrainingExample:
    """One labeled example: an entity id, its feature vector, and a label in {-1, +1}."""

    entity_id: int
    features: SparseVector
    label: int

    def __post_init__(self) -> None:
        if self.label not in (-1, 1):
            raise ConfigurationError(f"labels must be -1 or +1, got {self.label}")


class SGDTrainer:
    """Incremental stochastic gradient descent over a convex loss + penalty.

    Parameters
    ----------
    loss:
        Loss name (``"svm"``, ``"logistic"``, ``"ridge"``) or a :class:`Loss`.
    regularizer:
        Penalty name or instance; default l2 with small strength.
    learning_rate:
        Base step size ``eta_0``; the effective step decays as
        ``eta_0 / (1 + t * decay)`` where ``t`` counts absorbed examples.
    decay:
        Learning-rate decay constant; 0 keeps a constant step size.
    fit_bias:
        Whether to learn the bias term ``b`` (the paper's models all do).
    seed:
        Seed for the shuffling used by :meth:`fit` (epoch training).
    """

    def __init__(
        self,
        loss: str | Loss = "svm",
        regularizer: str | Regularizer = "l2",
        regularization: float = 1e-4,
        learning_rate: float = 0.3,
        decay: float = 0.02,
        fit_bias: bool = True,
        seed: int = 0,
    ):
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if decay < 0:
            raise ConfigurationError("decay must be >= 0")
        self.loss = get_loss(loss)
        self.regularizer = get_regularizer(regularizer, regularization)
        self.learning_rate = float(learning_rate)
        self.decay = float(decay)
        self.fit_bias = bool(fit_bias)
        self._rng = random.Random(seed)
        self._steps = 0
        self.model = LinearModel()

    # -- incremental API -----------------------------------------------------

    def reset(self) -> None:
        """Forget the current model and step count (used on re-training)."""
        self.model = LinearModel()
        self._steps = 0

    def load_state(self, model: LinearModel, steps: int | None = None) -> None:
        """Resume from a snapshotted model (checkpoint recovery).

        ``steps`` restores the learning-rate decay position; it defaults to
        the model's version, which counts absorbed examples under the normal
        incremental protocol.
        """
        if steps is None:
            steps = model.version
        if steps < 0:
            raise ConfigurationError("steps must be >= 0")
        self.model = model
        self._steps = int(steps)

    def current_step_size(self) -> float:
        """The learning rate that the *next* example will be absorbed with."""
        return self.learning_rate / (1.0 + self.decay * self._steps)

    def absorb(self, example: TrainingExample) -> LinearModel:
        """Absorb one training example and return the new model.

        This is the subroutine Hazy invokes on every ``INSERT`` into the
        examples table: one gradient step on the incoming example.
        """
        eta = self.current_step_size()
        grad = self.loss.derivative(self.model.margin(example.features), float(example.label))

        # Regularize first (shrink), then take the loss step — the usual
        # ordering for truncated-gradient style updates.  The shrunk array is
        # new, so the loss step changes no model anyone holds.
        weights = self.regularizer.shrink(self.model.weights.array, eta)
        bias = self.model.bias
        if grad != 0.0:
            weights = add_scaled(weights, example.features, -eta * grad)
            if self.fit_bias:
                # d(eps)/db = -1, so the bias moves in the opposite direction.
                bias += eta * grad
        self._steps += 1
        self.model = LinearModel(Weights(weights), bias, self._steps)
        return self.model

    def absorb_many(self, examples: Iterable[TrainingExample]) -> LinearModel:
        """Absorb a stream of examples; returns the final model."""
        for example in examples:
            self.absorb(example)
        return self.model

    # -- batch-style API ------------------------------------------------------

    def fit(self, examples: Sequence[TrainingExample], epochs: int = 5) -> LinearModel:
        """Run ``epochs`` shuffled passes over ``examples`` (bulk loading)."""
        if epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        order = list(examples)
        for _ in range(epochs):
            self._rng.shuffle(order)
            for example in order:
                self.absorb(example)
        return self.model

    def predict(self, features: SparseVector) -> int:
        """Label a single feature vector with the current model."""
        return self.model.predict(features)

    @property
    def steps(self) -> int:
        """Number of gradient steps taken so far."""
        return self._steps
