"""Sparse feature vectors.

The Hazy paper represents each entity by a feature vector ``f`` in R^d.  For
text workloads ``d`` can be in the hundreds of thousands while each document
only touches a few dozen terms, so the canonical representation in this
reproduction is :class:`SparseVector`, a value of two read-only arrays: the
non-zero entries' ``int32`` indices and their ``float64`` values.  It is built
once and frozen the way a model's :class:`~repro.learn.weights.Weights` are,
so featurizers, stores, training examples and checkpoints share one object,
and a store may copy its arrays without watching for writes.  The arrays keep
the *stored order* — where the mapping or pairs first listed each index —
and nothing sorts them: a margin folds left to right in that order, and the
kernels of :mod:`repro.linalg.kernels` reproduce it bit for bit.  Dense
``numpy`` arrays convert through :func:`to_sparse` / :func:`to_dense`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from functools import reduce
from operator import add, mul
from typing import Any, TypeVar

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError

__all__ = ["SparseVector", "dot", "dot_weights_each", "to_dense", "to_sparse"]

# Smallest positive normal double: naive power sums below this (or non-finite
# ones) have lost precision to subnormal underflow or overflow and are redone
# with pre-scaled components.
_NORMAL_MIN = 2.2250738585072014e-308

#: The largest index an ``int32`` index array holds.
_INDEX_MAX = 2**31 - 1

_Array = TypeVar("_Array", bound="npt.NDArray[Any]")


def _frozen(array: _Array) -> _Array:
    array.flags.writeable = False
    return array


_NO_INDICES = _frozen(np.zeros(0, dtype=np.int32))
_NO_VALUES = _frozen(np.zeros(0, dtype=np.float64))


class SparseVector:
    """The non-zero entries of a vector, as two frozen arrays in stored order.

    The constructor drops zeros and lets a later duplicate index win.  A
    vector in R^d has no negative coordinate: a negative index is rejected
    with :class:`~repro.exceptions.ConfigurationError` (a dense array would
    read it from the end, a mapping would not, and the two must agree), and
    so is one past ``2**31 - 1``, which the ``int32`` array would wrap.
    Equality ignores the order, as equality of the mappings did.
    """

    __slots__ = ("_indices", "_values", "_dimension")
    _indices: npt.NDArray[np.int32]
    _values: npt.NDArray[np.float64]
    _dimension: int  #: one more than the largest index (0 when empty)

    def __init__(
        self, data: Mapping[int, float] | Iterable[tuple[int, float]] | None = None
    ) -> None:
        entries: dict[int, float] = {}
        if data is not None:
            items = data.items() if isinstance(data, Mapping) else data
            for index, value in items:
                if value:
                    entries[int(index)] = float(value)
        if not entries:
            self._indices, self._values, self._dimension = _NO_INDICES, _NO_VALUES, 0
            return
        lowest, highest = min(entries), max(entries)
        if lowest < 0:
            raise ConfigurationError(f"feature index {lowest} is negative; indices start at 0")
        if highest > _INDEX_MAX:
            raise ConfigurationError(
                f"feature index {highest} does not fit an int32; indices end at {_INDEX_MAX}"
            )
        self._indices = _frozen(np.fromiter(entries, np.int32, len(entries)))
        self._values = _frozen(np.fromiter(entries.values(), np.float64, len(entries)))
        self._dimension = highest + 1

    @classmethod
    def _of(cls, indices: npt.NDArray[np.int32], values: npt.NDArray[np.float64]) -> SparseVector:
        """Freeze and take over arrays of valid entries."""
        vector = cls.__new__(cls)
        vector._indices = _frozen(indices) if len(indices) else _NO_INDICES
        vector._values = _frozen(values) if len(values) else _NO_VALUES
        vector._dimension = int(indices.max()) + 1 if len(indices) else 0
        return vector

    @classmethod
    def _runs(
        cls,
        indices: npt.NDArray[np.int32],
        values: npt.NDArray[np.float64],
        lengths: npt.NDArray[np.int32],
    ) -> list[SparseVector]:
        """The vectors whose valid entries lie end to end in two columns,
        ``lengths[i]`` of them for vector ``i``: each vector's arrays are a
        slice of the columns, which are frozen, not copied.  One reduction
        gives every largest index."""
        _frozen(indices)
        _frozen(values)
        stops = np.cumsum(lengths, dtype=np.int64)
        starts = stops - lengths
        filled = lengths > 0
        highest = np.zeros(len(lengths), dtype=np.int64)
        if filled.any():
            highest[filled] = np.maximum.reduceat(indices, starts[filled])
        vectors = []
        for start, stop, top in zip(starts.tolist(), stops.tolist(), highest.tolist()):
            vector = cls.__new__(cls)
            if start == stop:
                vector._indices, vector._values, vector._dimension = _NO_INDICES, _NO_VALUES, 0
            else:
                vector._indices, vector._values = indices[start:stop], values[start:stop]
                vector._dimension = top + 1
            vectors.append(vector)
        return vectors

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        return SparseVector._of, (self._indices, self._values)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, values: Iterable[float] | npt.NDArray[np.float64]) -> SparseVector:
        """Build a sparse vector from a dense iterable, dropping zeros (index order)."""
        array = np.array(values if isinstance(values, np.ndarray) else list(values), np.float64)
        nonzero = np.flatnonzero(array)
        return cls._of(nonzero.astype(np.int32), array[nonzero])

    @classmethod
    def zeros(cls) -> SparseVector:
        """Return an empty (all-zero) vector."""
        return cls()

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self._indices.tolist())

    def items(self) -> Iterator[tuple[int, float]]:
        """The stored ``(index, value)`` pairs as Python numbers, in stored order, for one pass."""
        return zip(self._indices.tolist(), self._values.tolist())

    def indices(self) -> npt.NDArray[np.int32]:
        """The indices of the non-zero entries: a read-only ``int32`` array, in stored order."""
        return self._indices

    def values(self) -> npt.NDArray[np.float64]:
        """The non-zero values: a read-only ``float64`` array, in the order of :meth:`indices`."""
        return self._values

    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return len(self._indices)

    # -- arithmetic ---------------------------------------------------------

    def dot(self, other: SparseVector | Mapping[int, float] | npt.NDArray[Any]) -> float:
        """Inner product with another sparse vector, mapping, or dense array.

        The sum is a left-to-right fold from ``0.0`` over the stored order of
        the operand with fewer entries (``self`` on a tie, and always against
        a dense array, where an index past the array's end contributes
        nothing).  That order is a contract:
        :func:`repro.linalg.kernels.batch_dot` reproduces it bit for bit.
        """
        if isinstance(other, np.ndarray):
            if self._dimension <= other.shape[0]:
                return self.dot_weights(other)
            inside = self._indices < other.shape[0]
            return SparseVector._of(self._indices[inside], self._values[inside]).dot_weights(other)
        small: SparseVector | Mapping[int, float] = self
        large: SparseVector | Mapping[int, float] = other
        if len(other) < len(self):
            small, large = other, self
        get = dict(large.items()).get
        total = 0.0
        for index, value in small.items():
            total += value * get(index, 0.0)
        return total

    @np.errstate(over="ignore", invalid="ignore")  # inf and NaN arise silently, as in Python
    def dot_weights(self, weights: npt.NDArray[Any]) -> float:
        """``w · f`` as :meth:`repro.learn.model.LinearModel.margin` folds it.

        A left-to-right fold from ``0.0`` over the stored order, an index past
        the array's end meeting a ``0.0`` weight (``inf * 0.0`` is NaN).  One
        gather and one ``np.add.accumulate``, not a loop: it adds in order from
        the first product, and ``0.0 +`` its last partial sum is what starting
        from ``0.0`` gives (the two differ only in a zero's sign).  Not
        ``np.sum`` / ``np.dot``, which add pairwise.  The decorator form of
        ``np.errstate`` costs a fraction of the ``with`` form;
        :func:`dot_weights_each` enters it once for a run of vectors.
        """
        return self._fold_weights(weights)

    def _fold_weights(self, weights: npt.NDArray[Any]) -> float:
        """The fold of :meth:`dot_weights`, under whatever ``errstate`` the caller holds."""
        if not len(self._values):
            return 0.0
        size = weights.shape[0]
        if self._dimension <= size:
            cells = weights.take(self._indices)
        elif size:
            cells = np.where(self._indices < size, weights.take(self._indices, mode="clip"), 0.0)
        else:
            cells = np.zeros(len(self._values))
        return 0.0 + float(np.add.accumulate(self._values * cells)[-1])

    def scale(self, factor: float) -> SparseVector:
        """Return ``factor * self`` as a new vector, entry by entry (one rounding each)."""
        if factor == 0.0:
            return SparseVector()
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf, silently
            return SparseVector._of(self._indices, self._values * factor)

    # -- norms --------------------------------------------------------------

    def norm(self, p: float = 2.0) -> float:
        """Return the `p`-norm of the vector (``p`` may be ``math.inf``)."""
        return _norm(self._values.tolist(), p)

    def normalized(self, p: float = 2.0) -> SparseVector:
        """Return the vector scaled to unit `p`-norm (zero vector unchanged).

        Divides elementwise rather than multiplying by ``1/length``: for
        subnormal components the reciprocal overflows to ``inf`` even though
        the division itself is exact.  A subnormal or overflowed norm (``{0:
        5e-324, 1: 5e-324}`` has 2-norm ``5e-324``) divides the pre-scaled
        vector.  An entry the division rounds to zero is dropped.
        """
        length = self.norm(p)
        if length == 0.0:
            return self
        values = self._values
        with np.errstate(over="ignore", invalid="ignore"):
            if not _NORMAL_MIN <= length < math.inf:
                largest = max(map(abs, values.tolist()))
                if largest < math.inf:
                    values = values / largest
                    length = _norm(values.tolist(), p)
            values = values / length
        kept = values != 0.0
        return SparseVector._of(self._indices[kept], values[kept])

    def max_index(self) -> int:
        """Largest stored index, or -1 for the zero vector."""
        return self._dimension - 1

    # -- conversion & comparison -------------------------------------------

    def to_dense(self, dimension: int | None = None) -> npt.NDArray[np.float64]:
        """Materialize as a dense ``numpy`` array of length ``dimension``."""
        if dimension is None:
            dimension = self._dimension
        dense = np.zeros(dimension, dtype=np.float64)
        inside = self._indices < dimension
        dense[self._indices[inside]] = self._values[inside]
        return dense

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseVector):
            return self is other or dict(self.items()) == dict(other.items())
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # equal vectors may store different orders

    def __repr__(self) -> str:
        preview = dict(sorted(self.items())[:6])
        suffix = ", ..." if self.nnz() > 6 else ""
        return f"SparseVector({preview}{suffix}, nnz={self.nnz()})"

    def approx_size_bytes(self) -> int:
        """The vector's bytes in the page-accounting model (page capacity, fig6a).

        A cost-model input kept fixed — what a dict of the entries was
        reckoned at — not a measurement of the arrays."""
        return 24 * self.nnz() + 64


def _total(terms: Iterable[float]) -> float:
    """Left-to-right sum from ``0.0``: built-in ``sum()`` compensates from Python 3.12 on."""
    total: float = reduce(add, terms, 0.0)
    return total


def _norm(values: list[float] | npt.NDArray[np.float64], p: float) -> float:
    """The `p`-norm of ``values``' magnitudes, summed left to right in their order.

    A dense array folds p = 1 / 2 in one ``np.add.accumulate``: the same bits."""
    if isinstance(values, np.ndarray):
        if len(values) and (p == 1 or p == 2):
            with np.errstate(over="ignore"):  # a square past the float range is inf
                terms = np.abs(values) if p == 1 else values * values
                total = 0.0 + float(np.add.accumulate(terms)[-1])
            if p == 1:
                return total
            if math.isfinite(total) and total >= _NORMAL_MIN:
                return math.sqrt(total)
        return _norm(values.tolist(), p)
    if not values:
        return 0.0
    if p == math.inf:
        return max(map(abs, values))
    if p == 1:
        return _total(map(abs, values))
    if p <= 0:
        raise ValueError(f"p-norm requires p > 0, got {p}")
    try:
        total = _total(map(mul, values, values)) if p == 2 else _total(abs(v) ** p for v in values)
    except OverflowError:  # float ** raises where * would give inf
        total = math.inf
    if math.isfinite(total) and total >= _NORMAL_MIN:
        return math.sqrt(total) if p == 2 else total ** (1.0 / p)
    # The powers under- or overflowed the naive sum (e.g. a component near
    # 1e-160 squares into the subnormal range): pre-scale by the largest magnitude.
    scale = max(abs(v) for v in values)
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * _total((abs(v) / scale) ** p for v in values) ** (1.0 / p)


def to_sparse(
    vector: SparseVector | Mapping[int, float] | Iterable[float] | npt.NDArray[Any],
) -> SparseVector:
    """Coerce ``vector`` into a :class:`SparseVector` (a vector is returned as it is)."""
    if isinstance(vector, SparseVector):
        return vector
    if isinstance(vector, Mapping):
        return SparseVector(vector)
    return SparseVector.from_dense(vector)


def to_dense(vector: SparseVector | npt.NDArray[Any], dimension: int) -> npt.NDArray[np.float64]:
    """Coerce ``vector`` to a dense array of exactly ``dimension`` entries."""
    if isinstance(vector, np.ndarray):
        if vector.shape[0] == dimension:
            return np.asarray(vector, dtype=np.float64)
        result = np.zeros(dimension, dtype=np.float64)
        result[: min(dimension, vector.shape[0])] = vector[: min(dimension, vector.shape[0])]
        return result
    return vector.to_dense(dimension)


@np.errstate(over="ignore", invalid="ignore")
def dot_weights_each(vectors: Iterable[SparseVector], weights: npt.NDArray[Any]) -> list[float]:
    """:meth:`SparseVector.dot_weights` of each vector: the same floats, one ``errstate``."""
    return [vector._fold_weights(weights) for vector in vectors]


def dot(left: SparseVector | npt.NDArray[Any], right: SparseVector | npt.NDArray[Any]) -> float:
    """Inner product between any combination of sparse and dense vectors."""
    if isinstance(left, SparseVector):
        return left.dot(right)
    if isinstance(right, SparseVector):
        return right.dot(left)
    n = min(left.shape[0], right.shape[0])
    return float(np.dot(left[:n], right[:n]))
