"""Regularization penalties ``P(w)`` (paper Figure 9b).

The SGD trainer applies the penalty's gradient contribution once per example
(scaled by the learning rate and ``lambda / n`` as usual for stochastic
methods).  Weights are a model's dense array (:mod:`repro.learn.weights`), and
a step is one vectorised pass over it that returns a new, writable array: the
trainer writes its loss step into that array before freezing it as the next
model, and the model it shrank from stays what it was.  ``L1Penalty`` uses the
common truncation approach so that weights actually reach exactly zero.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ConfigurationError
from repro.learn.weights import Array
from repro.linalg import p_norm

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
    def value(self, weights: Array) -> float:
        """Return ``P(w)``."""

    @abstractmethod
    def shrink(self, weights: Array, learning_rate: float) -> Array:
        """One regularization step: ``weights`` shrunk, as a new array."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(strength={self.strength})"


class L2Penalty(Regularizer):
    """``P(w) = (strength / 2) * ||w||_2^2`` — shrinks weights multiplicatively."""

    name = "l2"

    def value(self, weights: Array) -> float:
        return 0.5 * self.strength * p_norm(weights, 2) ** 2

    def shrink(self, weights: Array, learning_rate: float) -> Array:
        factor = 1.0 - learning_rate * self.strength
        if factor <= 0.0:
            return np.zeros(len(weights))
        return weights * factor


class L1Penalty(Regularizer):
    """``P(w) = strength * ||w||_1`` — truncation keeps the model sparse."""

    name = "l1"

    def value(self, weights: Array) -> float:
        return self.strength * p_norm(weights, 1)

    def shrink(self, weights: Array, learning_rate: float) -> Array:
        shrink = learning_rate * self.strength
        if shrink <= 0.0:
            return weights.copy()
        # |w| <= shrink (and NaN) truncates to 0.0.
        return np.where(
            weights > shrink, weights - shrink, np.where(weights < -shrink, weights + shrink, 0.0)
        )


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

    def value(self, weights: Array) -> float:
        return self._l1.value(weights) + self._l2.value(weights)

    def shrink(self, weights: Array, learning_rate: float) -> Array:
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
