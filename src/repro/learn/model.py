"""The linear model ``(w, b)``.

A linear model labels an entity with feature vector ``f`` as
``sign(w · f - b)``.  The Hazy core compares a *stored* model (the one used to
cluster the scratch table ``H``) against the *current* model; the distance
between their weights, ``||w - w_s||_p``, is what Lemma 3.1 bounds via
Hölder's inequality (:func:`repro.core.bounds.weight_distance`).

A model version is a value, and the runtime enforces it: the dataclass is
frozen and ``w`` is one read-only array (:class:`~repro.learn.weights.Weights`).
:class:`~repro.learn.sgd.SGDTrainer` builds each version once and everyone
else shares it by reference.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.learn.weights import Weights
from repro.linalg import SparseVector, p_norm
from repro.linalg.vectors import dot_weights_each

__all__ = ["LinearModel", "sign"]


def sign(x: float) -> int:
    """The paper's sign convention: ``sign(x) = 1`` if ``x >= 0`` else ``-1``."""
    return 1 if x >= 0.0 else -1


@dataclass(frozen=True)
class LinearModel:
    """A linear classification model ``(w, b)``.

    ``version`` counts how many training examples have been absorbed; the
    Hazy core uses it as the "round" index ``i`` of the paper.
    """

    weights: Weights = field(default_factory=Weights)
    bias: float = 0.0
    version: int = 0

    def margin(self, features: SparseVector) -> float:
        """Return the signed distance proxy ``eps = w · f - b``.

        A left-to-right fold from ``0.0`` over ``features``' stored order, an
        index past the weights' end meeting ``0.0`` — the order
        :func:`repro.linalg.kernels.row_margins` reproduces bit for bit
        (:meth:`SparseVector.dot_weights`).
        """
        return features.dot_weights(self.weights.array) - self.bias

    def margins(self, vectors: Iterable[SparseVector]) -> list[float]:
        """:meth:`margin` of each vector in turn — the scalar loop the batched
        kernels of :mod:`repro.linalg.kernels` reproduce bit for bit."""
        bias = self.bias
        return [dot - bias for dot in dot_weights_each(vectors, self.weights.array)]

    def predict(self, features: SparseVector) -> int:
        """Return the label ``sign(w · f - b)`` in ``{-1, +1}``."""
        return sign(self.margin(features))

    def norm(self, p: float = 2.0) -> float:
        """Return ``||w||_p``, summed in index order."""
        return p_norm(self.weights.array, p)

    def __repr__(self) -> str:
        return (
            f"LinearModel(nnz={self.weights.nnz()}, bias={self.bias:.4f}, "
            f"version={self.version})"
        )
