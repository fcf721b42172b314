"""``Chunk.to_rows`` against its definition, ``dict(zip(names, values))`` per row.

``to_rows`` builds rows one column at a time; the definition builds each row
from the tuple ``zip(*columns)`` yields.  The two must give equal dicts with
the same key order holding the very same value objects, for chunks of 0-6
columns (a name may repeat) and 0-3,000 rows of mixed values — None, bools,
NaN, ints past ``2**53``, text.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sql.plan import Chunk

NAMES = ("id", "class", "Title", "x.y", "", "margin")

#: Values are drawn once into a pool and laid out by a stride per column, so
#: a 3,000-row chunk costs Hypothesis a handful of draws, not 18,000.
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 0, -0.0, math.nan, math.inf]),
    st.floats(allow_nan=True),
    st.text(max_size=4),
)
columns = st.tuples(
    st.integers(min_value=1, max_value=97),  # stride
    st.integers(min_value=0, max_value=96),  # offset
)


def definition(chunk: Chunk) -> list[dict]:
    """The rows as ``to_rows`` once built them."""
    names = chunk.names
    return [dict(zip(names, row)) for row in zip(*(chunk.columns[name] for name in names))]


def _same(rows: list[dict], expected: list[dict]) -> None:
    assert rows == expected
    assert [list(row) for row in rows] == [list(row) for row in expected]
    assert all(
        value is row[name] for got, row in zip(rows, expected) for name, value in got.items()
    )


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(st.sampled_from(NAMES), max_size=6),
    layouts=st.lists(columns, min_size=6, max_size=6),
    pool=st.lists(values, min_size=1, max_size=24),
    length=st.one_of(st.integers(0, 8), st.integers(0, 3000)),
)
def test_to_rows_equals_its_definition(names, layouts, pool, length):
    data = {
        name: [pool[(stride * i + offset) % len(pool)] for i in range(length)]
        for name, (stride, offset) in zip(names, layouts)
    }
    chunk = Chunk.columnar(names, data)
    _same(chunk.to_rows(), definition(chunk))
