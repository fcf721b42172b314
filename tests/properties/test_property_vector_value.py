"""The array-backed vector is the dict-backed one, as bits.

:class:`~repro.linalg.SparseVector` used to be a ``dict[int, float]``; it is
now two frozen arrays in stored order, and a margin is one gather and one
``np.add.accumulate`` instead of a Python loop.  Labels are
``sign(w . f - b)`` and Skiing compares accumulated floats, so the arrays are
not allowed to be *close* to the dict: over random entries — duplicates,
zeros of either sign, subnormal, huge, infinite and NaN values, indices past
the model's end — the stored entries, ``LinearModel.margin``, ``dot`` (against
a vector, a mapping and an array), ``norm(p)``, ``normalized(p)`` and
``weight_distance`` must give the same bits as the reference kept in
``tests/linalg/dict_vector.py``.  Every ``SGDTrainer.absorb`` step is held
against the dict trainer in ``tests/properties/test_property_model_value.py``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import weight_distance
from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.linalg import SparseVector
from tests.linalg.dict_vector import DictVector, dict_norm

special = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 2.5e-308, 1e-160, 1e200, 1e308, -1e308,
     1.7976931348623157e308]
)
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), special)
values = st.one_of(finite, finite, finite, st.sampled_from([math.inf, -math.inf, math.nan]))
#: Indices 0..30 with repeats, against weight arrays of at most 20 cells.
pairs = st.lists(st.tuples(st.integers(0, 30), values), max_size=14)
arrays = st.lists(values, max_size=20).map(lambda cells: np.array(cells, dtype=np.float64))
powers = st.sampled_from([1.0, 2.0, 3.0, math.inf])


def bits(value: float) -> str:
    return "nan" if math.isnan(value) else float(value).hex()


def entry_bits(vector) -> list[tuple[int, str]]:
    return [(index, bits(value)) for index, value in vector.items()]


@settings(max_examples=400, deadline=None)
@given(entries=pairs, other=pairs, weights=arrays, bias=finite)
def test_entries_margin_and_dot_are_the_dicts(entries, other, weights, bias):
    vector, reference = SparseVector(entries), DictVector(entries)
    other_vector, other_reference = SparseVector(other), DictVector(other)
    assert entry_bits(vector) == entry_bits(reference)

    model = LinearModel(Weights(weights.copy()), bias)
    assert bits(model.margin(vector)) == bits(reference.margin(weights, bias))
    assert bits(vector.dot(weights)) == bits(reference.dot(weights))
    assert bits(vector.dot(other_vector)) == bits(reference.dot(other_reference))
    mapping = dict(other_reference.items())
    assert bits(vector.dot(mapping)) == bits(reference.dot(mapping))


@settings(max_examples=400, deadline=None)
@given(entries=pairs, p=powers)
def test_norms_and_normalization_are_the_dicts(entries, p):
    vector, reference = SparseVector(entries), DictVector(entries)
    assert bits(vector.norm(p)) == bits(reference.norm(p))
    assert entry_bits(vector.normalized(p)) == entry_bits(reference.normalized(p))


@settings(max_examples=300, deadline=None)
@given(
    current=st.lists(finite, max_size=20),
    stored=st.lists(finite, max_size=20),
    p=powers,
)
def test_the_radius_is_the_dict_eras_norm_of_the_difference(current, stored, p):
    """``||w - w_s||_p`` over the zero-padded arrays, summed in index order."""
    shared = min(len(current), len(stored))
    difference = (
        [left - right for left, right in zip(current, stored)]
        + current[shared:]
        + [-right for right in stored[shared:]]
    )
    got = weight_distance(Weights(np.array(current)), Weights(np.array(stored)), p)
    assert bits(got) == bits(dict_norm(difference, p))
