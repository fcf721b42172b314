"""The vectorized kernels of the one executor against their scalar definitions.

``Filter`` evaluates predicates as NumPy masks where it can and ``Sort`` /
``TopK`` order numeric columns with one ``argsort``.  The scalar definitions
they must agree with are :func:`repro.db.sql.plan.compare_values` (one value,
one bound) and Python's stable sort under :func:`repro.db.sql.plan._sort_key`.
No second interpreter cross-checks the kernels any more, so this property
does — over the values where a ``float64`` view could lie (ints beyond
``2**53``, NaN, infinities, ``-0.0``, bools, NULLs, strings).
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.sql.plan import (
    Chunk,
    Filter,
    PlanNode,
    PlanRuntime,
    Predicate,
    _sort_key,
    _sorted_chunk,
    compare_values,
)
from repro.exceptions import SQLExecutionError

OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

integers = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=2**53 - 2, max_value=2**53 + 2),
    st.integers(min_value=-(2**53) - 2, max_value=-(2**53) + 2),
    st.integers(min_value=-(2**70), max_value=2**70),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.5, -1.5, float(2**53), math.inf, -math.inf, math.nan]),
)
strings = st.text(alphabet="abAB0 ", max_size=3)
values = st.one_of(integers, floats, strings, st.none(), st.booleans())
bounds = st.one_of(integers, floats, strings, st.none())

#: Columns that are homogeneous (the typed-table case, where the NumPy paths
#: engage) as often as they are arbitrarily mixed.
columns = st.one_of(
    st.lists(st.one_of(integers, floats), max_size=40),
    st.lists(st.one_of(integers, floats, st.none()), max_size=40),
    st.lists(st.one_of(strings, st.none()), max_size=40),
    st.lists(values, max_size=40),
)
#: Columns Python can totally order (modulo NaN's own rules) beside NULLs.
sortable_columns = st.one_of(
    st.lists(st.one_of(integers, floats, st.booleans(), st.none()), max_size=40),
    st.lists(st.one_of(integers, st.none()), max_size=40),
    st.lists(st.one_of(strings, st.none()), max_size=40),
)

_RUNTIME = PlanRuntime(Database(), [], None, lambda: 0.0)


class _Leaf(PlanNode):
    """A producer handing the operator under test a pre-built chunk."""

    def __init__(self, chunk):
        super().__init__()
        self._chunk = chunk

    def _produce(self, runtime):
        return self._chunk


def _chunk(column: list) -> Chunk:
    """``column`` beside its positions."""
    return Chunk.columnar(["pos", "X"], {"pos": list(range(len(column))), "X": column})


def _identical(left: object, right: object) -> bool:
    """Same value *and* type (``1 == 1.0 == True`` must not pass); NaN is NaN."""
    if isinstance(left, float) and isinstance(right, float) and math.isnan(left):
        return math.isnan(right)
    return type(left) is type(right) and left == right and repr(left) == repr(right)


@settings(max_examples=400, deadline=None)
@given(
    column=columns,
    operator=st.sampled_from(OPERATORS),
    bound=bounds,
)
def test_filter_mask_equals_scalar_compare_values(column, operator, bound):
    try:
        expected = [
            position
            for position, value in enumerate(column)
            if compare_values(value, operator, bound)
        ]
    except SQLExecutionError:
        expected = None
    node = Filter(_Leaf(_chunk(column)), [Predicate("x", operator, bound)])
    try:
        kept = node.execute(_RUNTIME).values("pos")
    except SQLExecutionError:
        kept = None
    if expected is None:
        # The scalar definition raises at the first incomparable value it
        # meets; the column-wide evaluation must raise too.
        assert kept is None
    else:
        assert kept == expected


@settings(max_examples=400, deadline=None)
@given(
    column=sortable_columns,
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=45)),
)
def test_sorted_chunk_equals_stable_python_sort(column, descending, limit):
    rows = [{"pos": position, "X": value} for position, value in enumerate(column)]
    expected = sorted(rows, key=lambda row: _sort_key(row["X"]), reverse=descending)[:limit]
    got = _sorted_chunk(_chunk(column), "x", descending, limit=limit).to_rows()
    # Positions pin the tie order; values must come back exact, never as the
    # float64 the argsort looked at.
    assert [row["pos"] for row in got] == [row["pos"] for row in expected]
    assert all(_identical(g["X"], e["X"]) for g, e in zip(got, expected))
