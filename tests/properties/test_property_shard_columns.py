"""A shard state survives its version-3 payload bit for bit.

:meth:`~repro.persist.snapshot.ShardState.to_document` writes a shard as a
JSON head and binary columns, and
:meth:`~repro.persist.snapshot.ShardState.from_payload` reads it back.  The
property draws states the writer must take: ids of every JSON scalar type
(``null``, bools, ints past 64 bits, floats, strings), empty vectors,
vectors whose stored order is not sorted, values and eps that are NaN, ±inf
or subnormal, ``-0.0`` eps, bands and biases, models whose weight arrays hold
zeros of both signs and NaN, and shards with and without a stored model.
The decoded state must equal the drawn one with every float compared by its
``float.hex()`` and every array by ``array_equal`` of its bits, in stored
order; each decoded vector's arrays must be aligned, read-only slices of
one column; and writing the decoded state again must give the same bytes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.linalg import SparseVector
from repro.persist.snapshot import ShardState

ids = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
nonzero = any_float.filter(bool)
vectors = st.dictionaries(
    st.integers(min_value=0, max_value=2**31 - 1), nonzero, max_size=12
).map(SparseVector)
weight_arrays = st.lists(
    st.one_of(any_float, st.sampled_from([0.0, -0.0])), max_size=24
).map(lambda cells: np.array(cells, dtype=np.float64))
models = st.builds(
    lambda array, bias, version: LinearModel(Weights(array), bias, version),
    weight_arrays,
    any_float,
    st.integers(min_value=0, max_value=2**40),
)
#: The Skiing accounts in the order a maintainer exports them.
skiing = st.none() | st.tuples(
    any_float, any_float, st.integers(0, 10**6), st.integers(0, 10**6), any_float
).map(
    lambda values: dict(
        zip(
            (
                "reorganization_cost",
                "accumulated_cost",
                "rounds",
                "reorganizations",
                "incremental_cost_total",
            ),
            values,
        )
    )
)


@st.composite
def shard_states(draw) -> ShardState:
    entity_ids = draw(st.lists(ids, unique=True, max_size=20))
    records = [
        (entity_id, draw(vectors), draw(any_float), draw(st.sampled_from([1, -1])))
        for entity_id in entity_ids
    ]
    digests = draw(st.lists(st.binary(min_size=8, max_size=8), min_size=len(records)))
    return ShardState(
        index=draw(st.integers(0, 64)),
        strategy=draw(st.sampled_from(["hazy", "naive"])),
        approach=draw(st.sampled_from(["eager", "lazy"])),
        records=records,
        current_model=draw(models),
        row_hashes=[[entity_id, digest.hex()] for entity_id, digest in zip(entity_ids, digests)],
        max_feature_norm=draw(any_float),
        stored_model=draw(st.none() | models),
        band_low=draw(any_float),
        band_high=draw(any_float),
        skiing=draw(skiing),
    )


def bits(array: np.ndarray) -> np.ndarray:
    return array.view(np.uint64) if array.dtype == np.float64 else array


def same_model(left: LinearModel | None, right: LinearModel | None) -> bool:
    if left is None or right is None:
        return left is right
    return (
        np.array_equal(bits(left.weights.array), bits(right.weights.array))
        and float(left.bias).hex() == float(right.bias).hex()
        and left.version == right.version
    )


def scalar(value: object) -> tuple:
    """A value with its type, a float by its bits (``1 == 1.0 == True`` otherwise)."""
    return (type(value), value.hex() if isinstance(value, float) else value)


@settings(max_examples=150, deadline=None)
@given(shard_states())
def test_a_shard_state_round_trips_through_its_columns(state):
    payload = state.to_document()
    decoded = ShardState.from_payload(payload, payload_bytes=len(payload))
    assert [scalar(record[0]) for record in decoded.records] == [
        scalar(record[0]) for record in state.records
    ]
    for (_, features, eps, label), (_, original, eps0, label0) in zip(
        decoded.records, state.records
    ):
        for array, expected in (
            (features.indices(), original.indices()),
            (features.values(), original.values()),
        ):
            assert np.array_equal(bits(array), bits(expected))
            assert array.flags.aligned and not array.flags.writeable
        assert features.max_index() == original.max_index()
        assert (eps.hex(), label) == (float(eps0).hex(), label0)
    filled = [features for _, features, _, _ in decoded.records if features.nnz()]
    assert len({id(features.indices().base) for features in filled}) <= 1
    assert same_model(decoded.current_model, state.current_model)
    assert same_model(decoded.stored_model, state.stored_model)
    assert decoded.row_hashes == state.row_hashes
    for field in ("max_feature_norm", "band_low", "band_high"):
        assert getattr(decoded, field).hex() == getattr(state, field).hex()
    assert {key: scalar(value) for key, value in (decoded.skiing or {}).items()} == {
        key: scalar(value) for key, value in (state.skiing or {}).items()
    }
    assert (decoded.index, decoded.strategy, decoded.approach) == (
        state.index,
        state.strategy,
        state.approach,
    )
    assert decoded.payload_bytes == len(payload)
    assert decoded.to_document() == payload
