"""The row-sequential margin kernel against its scalar definition, *as bits*.

Labels are ``sign(w . f - b)`` and Skiing compares accumulated floats, so the
kernel that scores a water band (:func:`repro.linalg.kernels.sparse_margins`
over a store's CSR feature mirror, :func:`~repro.linalg.kernels.batch_dot`
over a list of vectors) is not allowed to be *close* to
``LinearModel.margin``: it has to be the same number, on *every* row.  This
property compares them as ``int64`` views (NaNs by ``isnan``) over the inputs
where a different summation order, a different start value or a careless
padding would show: empty rows, rows with more non-zeros than the model,
indices past the model's array (which meet a ``0.0`` weight), weights beyond
the mirror's dimension, negative / subnormal / huge values, ``+-0.0`` weights
and bias, NaN and infinite weights and feature values, rows whose every
product is ``-0.0``, arbitrary row orders and chunk boundaries.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.linalg import SparseVector, kernels

DIMENSION = 12

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324, 2.5e-308, 1e308, -1e308, 1e-200]),
)
#: Weights (and the bias) may also be signed zeros, infinities and NaN: zeros
#: are what an underflowing shrink leaves behind, the others what a diverged
#: trainer does.  A feature vector never stores a zero (its constructor drops
#: them), so in a row these values mean non-zero entries and dropped ones.
weights_values = st.one_of(
    finite, st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
)


def weights_of(pairs: list[tuple[int, float]]) -> Weights:
    """A weight array holding exactly ``pairs`` — explicit ``+-0.0`` cells included."""
    array = np.zeros(max((index for index, _ in pairs), default=-1) + 1)
    for index, value in pairs:
        array[index] = value
    return Weights(array)


def entries(values, max_index: int, max_size: int):
    """Distinct-index ``(index, value)`` lists in arbitrary (not sorted) order."""
    return st.lists(
        st.tuples(st.integers(0, max_index), values), max_size=max_size, unique_by=lambda p: p[0]
    )


rows = st.lists(entries(weights_values, DIMENSION - 1, 9).map(SparseVector), max_size=14)
#: Up to 18 weights over indices 0..top: the array is often shorter than the
#: rows' dimension, sometimes longer, and often has fewer non-zeros than a row.
models = st.builds(
    LinearModel,
    weights=st.integers(0, 19)
    .flatmap(lambda top: entries(weights_values, top, 18))
    .map(weights_of),
    bias=st.one_of(finite, st.sampled_from([0.0, -0.0])),
)


def same_bits(got: np.ndarray, want: list[float]) -> bool:
    want = np.array(want, dtype=np.float64)
    nan = np.isnan(want)
    return bool(
        (np.isnan(got) == nan).all() and (got[~nan].view(np.int64) == want[~nan].view(np.int64)).all()
    )


@settings(max_examples=300, deadline=None)
@given(rows=rows, model=models, chunk=st.sampled_from([1, 3, 256]), order=st.randoms())
def test_sparse_margins_equal_linear_model_margin(rows, model, chunk, order):
    indptr, indices, values = kernels.flatten(rows, np.int32)
    picked = list(range(len(rows))) * 2  # any order, repeats allowed
    order.shuffle(picked)
    picked = np.array(picked[: len(rows) + 3], dtype=np.int32)
    rows_per_step, kernels.ROW_CHUNK = kernels.ROW_CHUNK, chunk
    try:
        got = kernels.sparse_margins(
            indptr, indices, values, picked, model.weights.array, model.bias, DIMENSION
        )
    finally:
        kernels.ROW_CHUNK = rows_per_step
    assert same_bits(got, [model.margin(rows[row]) for row in picked.tolist()])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(entries(finite, 15, 9).map(SparseVector), max_size=10),
    weights=st.lists(weights_values, max_size=DIMENSION),
    bias=finite,
)
def test_batch_margins_equal_the_scalar_dot_against_a_dense_array(rows, weights, bias):
    dense = np.array(weights, dtype=np.float64)
    got = kernels.batch_margins(rows, dense, bias)
    assert same_bits(got, [row.dot(dense) - bias for row in rows])


def test_a_row_of_negative_zero_products_sums_to_positive_zero():
    """``sum`` starts from ``0`` and ``0.0 + -0.0 == 0.0``: the accumulator must start there too."""
    row = SparseVector([(0, 1.0), (1, 2.0)])
    model = LinearModel(weights=weights_of([(0, -0.0), (1, -0.0), (2, 1.0)]), bias=0.0)
    indptr, indices, values = kernels.flatten([row], np.int32)
    got = kernels.sparse_margins(
        indptr, indices, values, np.array([0]), model.weights.array, model.bias, 3
    )
    assert math.copysign(1.0, model.margin(row)) == 1.0
    assert same_bits(got, [model.margin(row)])


def test_a_nonfinite_weight_does_not_leak_through_the_padding():
    """Row 0 is shorter than row 1: its padded cell must not pick up the NaN weight."""
    short, long = SparseVector([(0, 1.0)]), SparseVector([(0, 1.0), (1, 1.0)])
    model = LinearModel(
        weights=weights_of([(0, 2.0), (1, math.nan), (2, 1.0)]), bias=0.5
    )
    indptr, indices, values = kernels.flatten([short, long], np.int32)
    got = kernels.sparse_margins(
        indptr, indices, values, np.array([0, 1]), model.weights.array, model.bias, 3
    )
    assert got[0] == 1.5 and math.isnan(got[1])


def test_an_index_past_the_model_meets_a_zero_weight():
    """The model's array ends at index 1; the kernel pads it to the rows' dimension."""
    rows = [SparseVector([(0, 2.0), (5, 3.0)]), SparseVector([(5, math.inf)])]
    model = LinearModel(weights=weights_of([(0, 0.5), (1, 1.0)]), bias=0.25)
    indptr, indices, values = kernels.flatten(rows, np.int32)
    got = kernels.sparse_margins(
        indptr, indices, values, np.array([0, 1]), model.weights.array, model.bias, 6
    )
    assert got[0] == 0.75 == model.margin(rows[0])
    assert math.isnan(got[1]) and math.isnan(model.margin(rows[1]))  # inf * 0.0
