"""Stochastic-gradient trainer (Bottou-style), Hazy's default learner.

The paper's default learning algorithm is stochastic gradient descent because
it examines a small number of training examples per step, has a tiny memory
footprint, and — crucially for view maintenance — updates the model
*incrementally*: each new training example produces the next model
``(w(i+1), b(i+1))`` from ``(w(i), b(i))`` with one gradient step.
Each step builds the next :class:`~repro.learn.model.LinearModel` as a new
value: the L2 shrink returns a fresh weight array, the loss step is written
into it, and it is frozen as the next model's weights.  A model the trainer
returned is never changed, so everyone holds it by reference and nobody
copies it.

The view's ``USING`` clause picks the loss; nothing picks anything else, so
the penalty strength and the step schedule are the constants below.  They are
read when a trainer is built and when it steps, so a test that needs another
value patches the module attribute before it builds the trainer.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.learn.loss import Loss, get_loss
from repro.learn.model import LinearModel
from repro.learn.regularizers import L2Penalty
from repro.learn.weights import Weights, add_scaled
from repro.linalg import SparseVector

__all__ = ["TrainingExample", "SGDTrainer"]

#: Strength of the L2 penalty ``(strength / 2) * ||w||_2^2``.
REGULARIZATION = 1e-4
#: Base step size ``eta_0``: the ``t``-th absorbed example is taken with step
#: ``eta_0 / (1 + t * DECAY)``.
LEARNING_RATE = 0.3
#: Learning-rate decay constant.
DECAY = 0.02


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
    """Incremental stochastic gradient descent over a convex loss + L2 penalty.

    ``loss`` is a loss name (``"svm"``, ``"logistic"``, ``"ridge"``) or a
    :class:`Loss`; the bias ``b`` is always learned, as in all of the paper's
    models.
    """

    def __init__(self, loss: str | Loss = "svm"):
        self.loss = get_loss(loss)
        self.penalty = L2Penalty(REGULARIZATION)
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
        return LEARNING_RATE / (1.0 + DECAY * self._steps)

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
        weights = self.penalty.shrink(self.model.weights.array, eta)
        bias = self.model.bias
        if grad != 0.0:
            weights = add_scaled(weights, example.features, -eta * grad)
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

    def predict(self, features: SparseVector) -> int:
        """Label a single feature vector with the current model."""
        return self.model.predict(features)

    @property
    def steps(self) -> int:
        """Number of gradient steps taken so far."""
        return self._steps
