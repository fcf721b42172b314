"""A model's weight vector ``w``: one dense, read-only ``float64`` array.

Cell ``i`` holds the weight of feature ``i``; a feature past the array's end
weighs ``0.0``.  The array is as long as the largest feature index the trainer
has seen, plus one, so a model version costs 8 bytes per index of that space
(160 KB for a 20,000-term vocabulary).  It is frozen (``writeable = False``)
when a :class:`Weights` takes it over, which is what makes a model a value:
nothing can write into a version anyone holds.

Dense because every per-example pass over ``w`` is then one NumPy call: the
regularizer's shrink (:mod:`repro.learn.regularizers`), Lemma 3.1's radius
(:func:`repro.core.bounds.weight_distance`) and the store's margin kernel,
which reads the array as it is.  The arithmetic stays element by element
(``w_i * factor``, then ``w_i + scale * f_i``, one rounding each), so a weight
does not depend on how the others are stored.  Zero cells are stored like any
other; :meth:`Weights.items` and :meth:`Weights.nnz` report the non-zeros.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import numpy.typing as npt

from repro.linalg import SparseVector

__all__ = ["Array", "Weights", "add_scaled"]

Array = npt.NDArray[np.float64]


class Weights:
    """``w`` as one read-only array (``array``) and a memoryview of it (``cells``).

    ``cells[i]`` is a Python float as fast as a dict lookup, which is what
    :meth:`repro.learn.model.LinearModel.margin` folds over.
    """

    __slots__ = ("array", "cells")

    def __init__(self, array: Array | None = None) -> None:
        """Take ``array`` over and freeze it: nobody writes into it after this."""
        if array is None:
            array = np.zeros(0)
        array.flags.writeable = False
        self.array = array
        self.cells = memoryview(array)

    @classmethod
    def of(cls, vector: SparseVector) -> Weights:
        """The weights holding ``vector``'s entries (a checkpoint's, a test's)."""
        array = np.zeros(vector.max_index() + 1)
        array[vector.indices()] = vector.values()
        return cls(array)

    def items(self) -> Iterator[tuple[int, float]]:
        """The non-zero ``(index, value)`` pairs, in index order, for one pass.

        An iterator, not a list: a checkpoint encodes every model it holds
        through this, and a list of pairs costs a third more than the dict
        comprehension that consumes it.
        """
        indices = np.flatnonzero(self.array != 0.0)
        return zip(indices.tolist(), self.array[indices].tolist())

    def nnz(self) -> int:
        """Number of non-zero weights (NaN counts)."""
        return int(np.count_nonzero(self.array != 0.0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Weights):
            return list(self.items()) == list(other.items())
        return NotImplemented


def add_scaled(array: Array, vector: SparseVector, scale: float) -> Array:
    """``array + scale * vector``, written into ``array`` (a fresh one its caller owns).

    Each touched cell becomes ``w_i + scale * f_i``, one rounding per
    operation.  When ``vector`` reaches past the end,
    the cells are written into a zero-padded copy instead.  A zero ``scale``
    changes nothing.
    """
    if scale == 0.0 or not vector.nnz():
        return array
    size = vector.max_index() + 1
    if size > len(array):
        array = np.concatenate((array, np.zeros(size - len(array))))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN arise as with Python floats
        array[vector.indices()] += scale * vector.values()
    return array
