"""Every literal ``EXPLAIN`` prints reads back as the value it was bound to.

``Predicate.render`` spells a WHERE value as SQL: a string between single
quotes with each quote doubled (the lexer's only escape), ``NULL``, ``TRUE`` /
``FALSE``, an infinite float as ``1e999`` / ``-1e999`` (a literal the lexer
reads as ±inf), and any other number as Python writes it, which the lexer
reads back.  A printed conjunct is parsed again here and must give the same
value, of the same type — a backslash stays one backslash, and a quote never
switches the string to double quotes.  (A NaN float has no SQL spelling and is
not drawn.)  ``EXPLAIN`` itself printing such strings is
``test_select_plan_table.py``'s literal test.
"""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.db.sql.parser import parse
from repro.db.sql.plan import Predicate

literals = st.one_of(
    st.text(),
    st.sampled_from(["it's", "a\\b", "''", "'", '"', "\\'", "x\ny", ""]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf]),
    st.booleans(),
    st.none(),
)


def _read_back(rendered: str) -> object:
    return parse(f"SELECT id FROM t WHERE {rendered}").where[0].value


@given(literals)
def test_a_rendered_literal_parses_to_its_value(value):
    back = _read_back(Predicate("c", "=", value).render())
    assert type(back) is type(value)
    assert repr(back) == repr(value)
