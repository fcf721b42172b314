"""The dict-backed sparse vector the package used before vectors were frozen arrays.

:class:`~repro.linalg.SparseVector` is now a value of two read-only arrays,
and nothing in the package may mutate one.  This is the class as it was — a
``dict[int, float]`` with in-place arithmetic — kept in the test tree, and
only here, as the reference the bit-identity properties hold the arrays
against (``tests/properties/test_property_vector_value.py``,
``tests/properties/test_property_model_value.py``).  Its norms fold left to
right from ``0.0``, which is what built-in ``sum()`` did before Python 3.12.

Unlike the package's class it can hold an explicit zero (``from_pairs``), the
way an underflowing ``scale`` or a cancelling ``add_inplace`` once left one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

_NORMAL_MIN = 2.2250738585072014e-308


class DictVector:
    """``{index: value}`` in insertion order, zeros dropped by the constructor."""

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[int, float] | Iterable[tuple[int, float]] | None = None):
        self._data: dict[int, float] = {}
        if data is None:
            return
        items = data.items() if isinstance(data, Mapping) else data
        for index, value in items:
            if value:
                self._data[int(index)] = float(value)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> DictVector:
        """Exactly ``pairs``, in that order — explicit zeros included."""
        vector = cls()
        vector._data.update(pairs)
        return vector

    def __contains__(self, index: int) -> bool:
        return index in self._data

    def __getitem__(self, index: int) -> float:
        return self._data.get(index, 0.0)

    def items(self):
        return self._data.items()

    def values(self):
        return self._data.values()

    def copy(self) -> DictVector:
        return DictVector.from_pairs(self._data.items())

    def dot(self, other) -> float:
        """A fold from ``0.0`` over the smaller operand (``self`` on a tie, always vs an array)."""
        total = 0.0
        if isinstance(other, np.ndarray):
            n = other.shape[0]
            for index, value in self._data.items():
                if index < n:
                    total += value * float(other[index])
            return total
        other_data = other._data if isinstance(other, DictVector) else dict(other.items())
        if len(other_data) < len(self._data):
            small, large = other_data, self._data
        else:
            small, large = self._data, other_data
        get = large.get
        for index, value in small.items():
            total += value * get(index, 0.0)
        return total

    def margin(self, weights: np.ndarray, bias: float) -> float:
        """``LinearModel.margin`` as it was: a fold over this vector, ``0.0`` past the end."""
        cells, size, total = memoryview(weights), len(weights), 0.0
        for index, value in self._data.items():
            total += value * (cells[index] if index < size else 0.0)
        return total - bias

    def scale(self, factor: float) -> DictVector:
        if factor == 0.0:
            return DictVector()
        return DictVector.from_pairs((i, v * factor) for i, v in self._data.items())

    def add_inplace(self, other, scale: float = 1.0) -> None:
        if scale == 0.0:
            return
        for index, value in other.items():
            new_value = self._data.get(index, 0.0) + scale * value
            if new_value:
                self._data[index] = new_value
            else:
                self._data.pop(index, None)

    def subtract(self, other: DictVector) -> DictVector:
        result = self.copy()
        result.add_inplace(other, -1.0)
        return result

    def norm(self, p: float = 2.0) -> float:
        return dict_norm(list(self._data.values()), p)

    def normalized(self, p: float = 2.0) -> DictVector:
        length = self.norm(p)
        if length == 0.0:
            return self.copy()
        data = self._data
        if not _NORMAL_MIN <= length < math.inf:
            largest = max(abs(v) for v in data.values())
            if largest < math.inf:
                data = {index: value / largest for index, value in data.items()}
                length = dict_norm(list(data.values()), p)
        return DictVector({index: value / length for index, value in data.items()})


def _fold(terms) -> float:
    total = 0.0
    for term in terms:
        total += term
    return total


def dict_norm(values: list[float], p: float) -> float:
    """The p-norm as the dict vector computed it, its sums folded left to right."""
    if not values:
        return 0.0
    if p == math.inf:
        return max(abs(v) for v in values)
    if p == 1:
        return _fold(abs(v) for v in values)
    try:
        total = _fold(v * v for v in values) if p == 2 else _fold(abs(v) ** p for v in values)
    except OverflowError:
        total = math.inf
    if math.isfinite(total) and total >= _NORMAL_MIN:
        return math.sqrt(total) if p == 2 else total ** (1.0 / p)
    scale = max(abs(v) for v in values)
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * _fold((abs(v) / scale) ** p for v in values) ** (1.0 / p)
