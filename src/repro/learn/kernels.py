"""Kernel functions (Appendix B.5.2).

A kernel ``K : R^d x R^d -> R`` is a positive semi-definite function.  The
Gaussian and Laplacian kernels are *shift invariant* which makes them eligible
for the Rahimi–Recht random-feature linearization in
:mod:`repro.learn.random_features`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.exceptions import ConfigurationError
from repro.linalg import SparseVector

__all__ = [
    "Kernel",
    "GaussianKernel",
    "LaplacianKernel",
]


class Kernel(ABC):
    """A positive semi-definite similarity function between feature vectors."""

    name = "kernel"
    #: Whether ``K(x, y)`` only depends on ``x - y`` (enables random features).
    shift_invariant = False

    @abstractmethod
    def __call__(self, left: SparseVector, right: SparseVector) -> float:
        """Evaluate ``K(left, right)``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _squared_distance(left: SparseVector, right: SparseVector) -> float:
    """``||left - right||_2^2`` without materializing the difference twice."""
    left_values, right_values = dict(left.items()), dict(right.items())
    total = 0.0
    for index, value in left_values.items():
        diff = value - right_values.get(index, 0.0)
        total += diff * diff
    for index, value in right_values.items():
        if index not in left_values:
            total += value * value
    return total


def _l1_distance(left: SparseVector, right: SparseVector) -> float:
    """``||left - right||_1``."""
    left_values, right_values = dict(left.items()), dict(right.items())
    total = 0.0
    for index, value in left_values.items():
        total += abs(value - right_values.get(index, 0.0))
    for index, value in right_values.items():
        if index not in left_values:
            total += abs(value)
    return total


class GaussianKernel(Kernel):
    """RBF kernel ``K(x, y) = exp(-gamma * ||x - y||_2^2)``."""

    name = "gaussian"
    shift_invariant = True

    def __init__(self, gamma: float = 1.0):
        if gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        self.gamma = float(gamma)

    def __call__(self, left: SparseVector, right: SparseVector) -> float:
        return math.exp(-self.gamma * _squared_distance(left, right))

    def __repr__(self) -> str:
        return f"GaussianKernel(gamma={self.gamma})"


class LaplacianKernel(Kernel):
    """``K(x, y) = exp(-gamma * ||x - y||_1)`` — also shift invariant."""

    name = "laplacian"
    shift_invariant = True

    def __init__(self, gamma: float = 1.0):
        if gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        self.gamma = float(gamma)

    def __call__(self, left: SparseVector, right: SparseVector) -> float:
        return math.exp(-self.gamma * _l1_distance(left, right))

    def __repr__(self) -> str:
        return f"LaplacianKernel(gamma={self.gamma})"

