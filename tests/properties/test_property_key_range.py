"""Property: :meth:`KeyRange.tighten` is the conjunction it replaces.

The planner and the executor turn a column's range conjuncts into one
:class:`~repro.db.types.KeyRange` with the same constructor.  Whatever the
conjuncts — repeated bounds, equal bounds one strict and one not, ints beside
floats — a key lies in the range exactly when it satisfies every conjunct
under :func:`~repro.db.sql.plan.compare_values`, the scalar definition
``Filter`` and the SQL differential's reference evaluate.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sql.plan import compare_values
from repro.db.types import KeyRange

OPERATORS = ("=", "<", "<=", ">", ">=")
#: Operators that set the lower / upper bound; ``=`` sets both.
LOWER = {"=", ">", ">="}
UPPER = {"=", "<", "<="}

#: Few distinct values, so bounds repeat and ints meet equal floats.
bounds = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([-2.0, -0.5, 0.0, 1.0, 1.5, 3.0]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
conjuncts = st.lists(st.tuples(st.sampled_from(OPERATORS), bounds), min_size=1, max_size=4)


def keys_around(values) -> list[object]:
    """Every bound, and keys just and well below and above it."""
    keys: list[object] = []
    for value in values:
        keys += [value, value - 1, value + 1, value - 0.5, value + 0.5]
        keys += [math.nextafter(float(value), -math.inf), math.nextafter(float(value), math.inf)]
    return keys


@settings(max_examples=400, deadline=None)
@given(conjuncts)
def test_contains_is_the_conjunction_of_the_comparisons(pairs):
    key_range = KeyRange.tighten(pairs)
    assert key_range is not None
    for key in keys_around(value for _, value in pairs):
        expected = all(compare_values(key, operator, value) for operator, value in pairs)
        assert key_range.contains(key) is expected, (key, key_range)


@settings(max_examples=100, deadline=None)
@given(conjuncts, st.sampled_from(OPERATORS), st.data())
def test_a_null_bound_gives_no_range(pairs, operator, data):
    position = data.draw(st.integers(min_value=0, max_value=len(pairs)))
    assert KeyRange.tighten([*pairs[:position], (operator, None), *pairs[position:]]) is None


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(OPERATORS),
    st.sampled_from(OPERATORS),
    st.integers(min_value=-3, max_value=3),
    st.text(max_size=3),
    st.booleans(),
)
def test_an_int_bound_against_a_str_bound_raises(first, second, number, text, str_first):
    """Two bounds on one side must be ordered against each other to tighten."""
    if not ({first, second} <= LOWER or {first, second} <= UPPER):
        second = "="  # shares a side with every operator
    pairs = [(first, number), (second, text)]
    with pytest.raises(TypeError):
        KeyRange.tighten(pairs[::-1] if str_first else pairs)
