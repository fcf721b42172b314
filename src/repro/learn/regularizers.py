"""Regularization penalties ``P(w)`` (paper Figure 9b).

The SGD trainer applies the penalty's gradient contribution once per example
(scaled by the learning rate and ``lambda / n`` as usual for stochastic
methods).  A step returns the shrunk weights as a new vector and leaves its
argument alone, so the trainer's shrink *is* the next model's weights and the
model it shrank from stays what it was.  ``L1Penalty`` uses the common
truncation approach so that weights actually reach exactly zero, preserving
sparsity of the model vector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.exceptions import ConfigurationError
from repro.linalg import SparseVector

__all__ = [
    "Regularizer",
    "L2Penalty",
    "L1Penalty",
    "ElasticNetPenalty",
    "get_regularizer",
    "REGULARIZERS",
]


class Regularizer(ABC):
    """A strongly convex penalty ``P(w)`` with a proximal/gradient step."""

    name = "penalty"

    def __init__(self, strength: float = 1e-4):
        if strength < 0:
            raise ConfigurationError("regularization strength must be >= 0")
        self.strength = float(strength)

    @abstractmethod
    def value(self, weights: SparseVector) -> float:
        """Return ``P(w)``."""

    @abstractmethod
    def shrink(self, weights: SparseVector, learning_rate: float) -> SparseVector:
        """One regularization step: ``weights`` shrunk, as a new vector."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(strength={self.strength})"


class L2Penalty(Regularizer):
    """``P(w) = (strength / 2) * ||w||_2^2`` — shrinks weights multiplicatively."""

    name = "l2"

    def value(self, weights: SparseVector) -> float:
        return 0.5 * self.strength * weights.norm(2) ** 2

    def shrink(self, weights: SparseVector, learning_rate: float) -> SparseVector:
        factor = 1.0 - learning_rate * self.strength
        if factor < 0.0:
            factor = 0.0
        return weights.scale(factor)


class L1Penalty(Regularizer):
    """``P(w) = strength * ||w||_1`` — truncation keeps the model sparse."""

    name = "l1"

    def value(self, weights: SparseVector) -> float:
        return self.strength * weights.norm(1)

    def shrink(self, weights: SparseVector, learning_rate: float) -> SparseVector:
        shrink = learning_rate * self.strength
        if shrink <= 0.0:
            return weights.copy()
        updated: dict[int, float] = {}
        for index, value in weights.items():
            if value > shrink:
                updated[index] = value - shrink
            elif value < -shrink:
                updated[index] = value + shrink
        return SparseVector(updated)


class ElasticNetPenalty(Regularizer):
    """Convex combination of L1 and L2: ``ratio`` selects the L1 share."""

    name = "elastic_net"

    def __init__(self, strength: float = 1e-4, ratio: float = 0.5):
        super().__init__(strength)
        if not 0.0 <= ratio <= 1.0:
            raise ConfigurationError("elastic-net ratio must be in [0, 1]")
        self.ratio = float(ratio)
        self._l1 = L1Penalty(strength * ratio)
        self._l2 = L2Penalty(strength * (1.0 - ratio))

    def value(self, weights: SparseVector) -> float:
        return self._l1.value(weights) + self._l2.value(weights)

    def shrink(self, weights: SparseVector, learning_rate: float) -> SparseVector:
        return self._l1.shrink(self._l2.shrink(weights, learning_rate), learning_rate)


#: Registry of penalties selectable by name.
REGULARIZERS: dict[str, type[Regularizer]] = {
    "l2": L2Penalty,
    "ridge": L2Penalty,
    "l1": L1Penalty,
    "lasso": L1Penalty,
    "elastic_net": ElasticNetPenalty,
}


def get_regularizer(name: str | Regularizer, strength: float = 1e-4) -> Regularizer:
    """Resolve ``name`` (or pass through an instance) to a :class:`Regularizer`."""
    if isinstance(name, Regularizer):
        return name
    key = name.strip().lower()
    if key not in REGULARIZERS:
        raise ConfigurationError(
            f"unknown regularizer {name!r}; available: {sorted(set(REGULARIZERS))}"
        )
    return REGULARIZERS[key](strength)
