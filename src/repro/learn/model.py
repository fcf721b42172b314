"""The linear model ``(w, b)`` and model deltas.

A linear model labels an entity with feature vector ``f`` as
``sign(w · f - b)``.  The Hazy core compares a *stored* model (the one used to
cluster the scratch table ``H``) against the *current* model; the difference
between them — captured here as :class:`ModelDelta` — is what Lemma 3.1 bounds
via Hölder's inequality.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.linalg import SparseVector

__all__ = ["LinearModel", "ModelDelta", "sign"]


def sign(x: float) -> int:
    """The paper's sign convention: ``sign(x) = 1`` if ``x >= 0`` else ``-1``."""
    return 1 if x >= 0.0 else -1


@dataclass
class LinearModel:
    """A linear classification model ``(w, b)``.

    ``version`` counts how many training examples have been absorbed; the
    Hazy core uses it as the "round" index ``i`` of the paper.
    """

    weights: SparseVector = field(default_factory=SparseVector)
    bias: float = 0.0
    version: int = 0

    def copy(self) -> "LinearModel":
        """Return an independent snapshot of this model."""
        return LinearModel(weights=self.weights.copy(), bias=self.bias, version=self.version)

    def margin(self, features: SparseVector) -> float:
        """Return the signed distance proxy ``eps = w · f - b``."""
        return self.weights.dot(features) - self.bias

    def margins(self, vectors: Iterable[SparseVector]) -> list[float]:
        """:meth:`margin` of each vector in turn — the scalar loop the batched
        kernels of :mod:`repro.linalg.kernels` reproduce bit for bit."""
        return [self.margin(features) for features in vectors]

    def predict(self, features: SparseVector) -> int:
        """Return the label ``sign(w · f - b)`` in ``{-1, +1}``."""
        return sign(self.margin(features))

    def delta_from(self, stored: "LinearModel") -> "ModelDelta":
        """Return the delta ``(w - w_s, b - b_s)`` relative to a stored model."""
        return ModelDelta(
            weight_delta=self.weights.subtract(stored.weights),
            bias_delta=self.bias - stored.bias,
            from_version=stored.version,
            to_version=self.version,
        )

    def norm(self, p: float = 2.0) -> float:
        """Return ``||w||_p``."""
        return self.weights.norm(p)

    def is_zero(self) -> bool:
        """True when the model has no weights and no bias (untrained)."""
        return self.weights.nnz() == 0 and self.bias == 0.0

    def __repr__(self) -> str:
        return (
            f"LinearModel(nnz={self.weights.nnz()}, bias={self.bias:.4f}, "
            f"version={self.version})"
        )


@dataclass(frozen=True)
class ModelDelta:
    """The difference between two models, used by the water-band bounds."""

    weight_delta: SparseVector
    bias_delta: float
    from_version: int
    to_version: int

    def weight_norm(self, p: float) -> float:
        """Return ``||delta_w||_p`` (``p`` may be ``math.inf``)."""
        return self.weight_delta.norm(p)

    def is_empty(self) -> bool:
        """True when both models are identical."""
        return self.weight_delta.nnz() == 0 and self.bias_delta == 0.0

    def magnitude(self) -> float:
        """A scalar summary (l2 of the weight delta plus |bias delta|)."""
        return math.hypot(self.weight_delta.norm(2), self.bias_delta)
