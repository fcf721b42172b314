"""The L2 penalty ``P(w) = (strength / 2) * ||w||_2^2`` (paper Figure 9b).

Figure 9b lists other penalties (lp, Tikhonov, entropy), but ``CREATE
CLASSIFICATION VIEW`` has no clause that names one: ``USING`` picks the loss
and nothing picks the penalty.  So L2, the penalty of the paper's SVM, is the
one penalty here, shared by :class:`~repro.learn.sgd.SGDTrainer` and
:class:`~repro.learn.batch.BatchSubgradientSVM`.

The SGD trainer applies the penalty's gradient contribution once per example
(scaled by the learning rate).  Weights are a model's dense array
(:mod:`repro.learn.weights`), and a step is one vectorised pass over it that
returns a new, writable array: the trainer writes its loss step into that
array before freezing it as the next model, and the model it shrank from stays
what it was.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.learn.weights import Array
from repro.linalg import p_norm

__all__ = ["L2Penalty"]


class L2Penalty:
    """``P(w) = (strength / 2) * ||w||_2^2`` — shrinks weights multiplicatively."""

    def __init__(self, strength: float):
        if strength < 0:
            raise ConfigurationError("regularization strength must be >= 0")
        self.strength = float(strength)

    def value(self, weights: Array) -> float:
        """Return ``P(w)``."""
        return 0.5 * self.strength * p_norm(weights, 2) ** 2

    def shrink(self, weights: Array, learning_rate: float) -> Array:
        """One regularization step: ``weights`` shrunk, as a new array."""
        factor = 1.0 - learning_rate * self.strength
        if factor <= 0.0:
            return np.zeros(len(weights))
        return weights * factor

    def __repr__(self) -> str:
        return f"L2Penalty(strength={self.strength})"
