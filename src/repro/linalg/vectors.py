"""Sparse feature vectors.

The Hazy paper represents each entity by a feature vector ``f`` in R^d.  For
text workloads ``d`` can be in the hundreds of thousands while each document
only touches a few dozen terms, so the canonical representation in this
reproduction is a dictionary-backed :class:`SparseVector`.  Dense ``numpy``
arrays are accepted anywhere a vector is expected and are converted through
:func:`to_sparse` / :func:`to_dense`.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["SparseVector", "dot", "to_dense", "to_sparse", "axpy"]

# Smallest positive normal double: naive power sums below this (or non-finite
# ones) have lost precision to subnormal underflow or overflow and are redone
# with pre-scaled components.
_NORMAL_MIN = 2.2250738585072014e-308


class SparseVector:
    """A sparse vector stored as a mapping from integer index to float value.

    Zero entries are never stored; arithmetic methods drop entries that become
    exactly zero.  The class is deliberately small and explicit — it is the
    innermost data structure of the whole system and is exercised by every
    training step and every reclassification.

    A vector in R^d has no negative coordinate: a negative index is rejected
    with :class:`~repro.exceptions.ConfigurationError` (a dense array would
    read it from the end, a mapping would not, and the two must agree).
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[int, float] | Iterable[tuple[int, float]] | None = None):
        self._data: dict[int, float] = {}
        if data is None:
            return
        items = data.items() if isinstance(data, Mapping) else data
        for index, value in items:
            if value:
                self._data[int(index)] = float(value)
        if self._data and min(self._data) < 0:
            raise ConfigurationError(
                f"feature index {min(self._data)} is negative; indices start at 0"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, values: Iterable[float]) -> "SparseVector":
        """Build a sparse vector from a dense iterable, dropping zeros."""
        return cls({i: float(v) for i, v in enumerate(values) if v})

    @classmethod
    def zeros(cls) -> "SparseVector":
        """Return an empty (all-zero) vector."""
        return cls()

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __contains__(self, index: int) -> bool:
        return index in self._data

    def __getitem__(self, index: int) -> float:
        return self._data.get(index, 0.0)

    def __setitem__(self, index: int, value: float) -> None:
        if index < 0:
            raise ConfigurationError(f"feature index {index} is negative; indices start at 0")
        if value:
            self._data[int(index)] = float(value)
        else:
            self._data.pop(int(index), None)

    def items(self) -> Iterable[tuple[int, float]]:
        """Iterate over the stored ``(index, value)`` pairs."""
        return self._data.items()

    def indices(self) -> Iterable[int]:
        """Iterate over the indices of the non-zero entries."""
        return self._data.keys()

    def values(self) -> Iterable[float]:
        """Iterate over the non-zero values, in the order of :meth:`indices`."""
        return self._data.values()

    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return len(self._data)

    def copy(self) -> "SparseVector":
        """Return an independent copy of this vector."""
        clone = SparseVector()
        clone._data = dict(self._data)
        return clone

    def to_dict(self) -> dict[int, float]:
        """Return the underlying mapping as a plain dictionary copy."""
        return dict(self._data)

    # -- arithmetic ---------------------------------------------------------

    def dot(self, other: "SparseVector | Mapping[int, float] | np.ndarray") -> float:
        """Inner product with another sparse vector, mapping, or dense array.

        The sum is a left-to-right fold from ``0.0`` over the stored order of
        the operand with fewer entries (``self`` on a tie, and always against
        a dense array).  That order is a contract:
        :func:`repro.linalg.kernels.batch_dot` reproduces it bit for bit, and
        it is spelled as a loop because built-in ``sum()`` compensates float
        sums from Python 3.12 on and would round differently there.
        """
        total = 0.0
        if isinstance(other, np.ndarray):
            n = other.shape[0]
            for index, value in self._data.items():
                if index < n:
                    total += value * float(other[index])
            return total
        other_data = other._data if isinstance(other, SparseVector) else other
        if len(other_data) < len(self._data):
            small, large = other_data, self._data
        else:
            small, large = self._data, other_data
        get = large.get
        for index, value in small.items():
            total += value * get(index, 0.0)
        return total

    def scale(self, factor: float) -> "SparseVector":
        """Return ``factor * self`` as a new vector."""
        if factor == 0.0:
            return SparseVector()
        result = SparseVector()
        result._data = {i: v * factor for i, v in self._data.items()}
        return result

    def scale_inplace(self, factor: float) -> None:
        """Multiply this vector by ``factor`` in place."""
        if factor == 0.0:
            self._data.clear()
            return
        for index in self._data:
            self._data[index] *= factor

    def add(self, other: "SparseVector", scale: float = 1.0) -> "SparseVector":
        """Return ``self + scale * other`` as a new vector."""
        result = self.copy()
        result.add_inplace(other, scale)
        return result

    def add_inplace(self, other: "SparseVector | Mapping[int, float]", scale: float = 1.0) -> None:
        """Compute ``self += scale * other`` in place (an axpy update)."""
        if scale == 0.0:
            return
        other_items = other.items() if isinstance(other, SparseVector) else other.items()
        for index, value in other_items:
            new_value = self._data.get(index, 0.0) + scale * value
            if new_value:
                self._data[index] = new_value
            else:
                self._data.pop(index, None)

    def subtract(self, other: "SparseVector") -> "SparseVector":
        """Return ``self - other`` as a new vector."""
        return self.add(other, scale=-1.0)

    # -- norms --------------------------------------------------------------

    def norm(self, p: float = 2.0) -> float:
        """Return the `p`-norm of the vector (``p`` may be ``math.inf``)."""
        return _norm(self._data.values(), p)

    def normalized(self, p: float = 2.0) -> "SparseVector":
        """Return the vector scaled to unit `p`-norm (zero vector unchanged).

        Divides elementwise rather than multiplying by ``1/length``: for
        subnormal components the reciprocal overflows to ``inf`` even though
        the division itself is exact.  A subnormal or overflowed norm (``{0:
        5e-324, 1: 5e-324}`` has 2-norm ``5e-324``) divides the pre-scaled vector.
        """
        length = self.norm(p)
        if length == 0.0:
            return self.copy()
        data = self._data
        if not _NORMAL_MIN <= length < math.inf:
            largest = max(abs(v) for v in data.values())
            if largest < math.inf:
                data = {index: value / largest for index, value in data.items()}
                length = _norm(data.values(), p)
        return SparseVector({index: value / length for index, value in data.items()})

    def max_index(self) -> int:
        """Largest stored index, or -1 for the zero vector."""
        return max(self._data) if self._data else -1

    # -- conversion & comparison -------------------------------------------

    def to_dense(self, dimension: int | None = None) -> np.ndarray:
        """Materialize as a dense ``numpy`` array of length ``dimension``."""
        if dimension is None:
            dimension = self.max_index() + 1
        dense = np.zeros(dimension, dtype=np.float64)
        for index, value in self._data.items():
            if index < dimension:
                dense[index] = value
        return dense

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseVector):
            return self._data == other._data
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - vectors are not hashable
        raise TypeError("SparseVector is mutable and unhashable")

    def __repr__(self) -> str:
        preview = dict(sorted(self._data.items())[:6])
        suffix = ", ..." if len(self._data) > 6 else ""
        return f"SparseVector({preview}{suffix}, nnz={len(self._data)})"

    def approx_size_bytes(self) -> int:
        """Rough in-memory footprint used by the hybrid memory accounting."""
        # One (int, float) pair per non-zero entry: 8 bytes key + 8 bytes value
        # plus dict overhead amortized to ~8 bytes per slot.
        return 24 * len(self._data) + 64


def _norm(values: Collection[float], p: float) -> float:
    """The `p`-norm of ``values``' magnitudes, summed in their order."""
    if not values:
        return 0.0
    if p == math.inf:
        return max(abs(v) for v in values)
    if p == 1:
        return sum(abs(v) for v in values)
    if p <= 0:
        raise ValueError(f"p-norm requires p > 0, got {p}")
    try:
        total = sum(v * v for v in values) if p == 2 else sum(abs(v) ** p for v in values)
    except OverflowError:  # float ** raises where * would give inf
        total = math.inf
    if math.isfinite(total) and total >= _NORMAL_MIN:
        return math.sqrt(total) if p == 2 else total ** (1.0 / p)
    # The powers under- or overflowed the naive sum (e.g. a component near
    # 1e-160 squares into the subnormal range): pre-scale by the largest magnitude.
    scale = max(abs(v) for v in values)
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * sum((abs(v) / scale) ** p for v in values) ** (1.0 / p)


def to_sparse(vector: SparseVector | Mapping[int, float] | Iterable[float] | np.ndarray) -> SparseVector:
    """Coerce ``vector`` into a :class:`SparseVector` (copies the data)."""
    if isinstance(vector, SparseVector):
        return vector.copy()
    if isinstance(vector, Mapping):
        return SparseVector(vector)
    if isinstance(vector, np.ndarray):
        return SparseVector.from_dense(vector.tolist())
    return SparseVector.from_dense(vector)


def to_dense(vector: SparseVector | np.ndarray, dimension: int) -> np.ndarray:
    """Coerce ``vector`` to a dense array of exactly ``dimension`` entries."""
    if isinstance(vector, np.ndarray):
        if vector.shape[0] == dimension:
            return np.asarray(vector, dtype=np.float64)
        result = np.zeros(dimension, dtype=np.float64)
        result[: min(dimension, vector.shape[0])] = vector[: min(dimension, vector.shape[0])]
        return result
    return vector.to_dense(dimension)


def dot(left: SparseVector | np.ndarray, right: SparseVector | np.ndarray) -> float:
    """Inner product between any combination of sparse and dense vectors."""
    if isinstance(left, SparseVector):
        return left.dot(right)
    if isinstance(right, SparseVector):
        return right.dot(left)
    n = min(left.shape[0], right.shape[0])
    return float(np.dot(left[:n], right[:n]))


def axpy(accumulator: SparseVector, vector: SparseVector, scale: float) -> SparseVector:
    """In-place ``accumulator += scale * vector``; returns the accumulator."""
    accumulator.add_inplace(vector, scale)
    return accumulator
