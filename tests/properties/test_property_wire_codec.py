"""The wire codec over generated result sets: byte-exact, and exact as bits.

A response's ``rows`` list is encoded in slices of ``_INCREMENTAL_ROWS`` rows
and spliced into the rest of the message.  That splice is only allowed to be
an optimisation: with ``rows`` last (how the server orders a query response)
the payload must be *byte for byte* what one ``json.dumps`` of the message
gives, at every length around a slice boundary and at random lengths; with
``rows`` anywhere else it must decode to the same message.  A frame must also
carry every value back exactly — floats as bits (``-0.0``, subnormals,
``±inf``, NaN), ints past 2**53, non-ASCII text, None and bools as
themselves.
"""

from __future__ import annotations

import json
import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.protocol import _INCREMENTAL_ROWS, _encode_payload, read_frame, write_frame

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 2**64, -(2**63)]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.225073858507201e-308]),
    st.text(max_size=12),
    st.sampled_from(["héllo — ünïcode 🎓", "  ", "\x00\x1f", '"\\/', "日本語"]),
)
names = st.text(max_size=8)
row_pools = st.lists(st.dictionaries(names, scalars, max_size=5), min_size=1, max_size=12)
lengths = st.one_of(
    st.sampled_from(
        [
            0,
            1,
            _INCREMENTAL_ROWS - 1,
            _INCREMENTAL_ROWS,
            _INCREMENTAL_ROWS + 1,
            2 * _INCREMENTAL_ROWS + 1,
        ]
    ),
    st.integers(min_value=0, max_value=1_000),
)
heads = st.dictionaries(names.filter(lambda name: name != "rows"), scalars, max_size=3)


@st.composite
def result_rows(draw) -> list[dict]:
    """``length`` rows drawn (with repeats) from a small pool of generated rows."""
    pool = draw(row_pools)
    length = draw(lengths)
    picks = draw(st.randoms(use_true_random=False))
    return [picks.choice(pool) for _ in range(length)]


def exact(value):
    """``value`` with every scalar tagged by its type and every float by its bits.

    NaN compares unequal to itself, and ``True == 1`` and ``0.0 == -0.0`` in
    Python; comparing these images instead makes equality mean "the same
    value, bit for bit".
    """
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    if isinstance(value, list):
        return [exact(item) for item in value]
    if isinstance(value, float):
        return ("float", "nan" if math.isnan(value) else struct.pack(">d", value))
    return (type(value).__name__, value)


class Loopback:
    """A socket stand-in: ``sendall`` appends, ``recv`` reads back in order."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def sendall(self, data: bytes) -> None:
        self.buffer += data

    def recv(self, count: int) -> bytes:
        chunk = bytes(self.buffer[:count])
        del self.buffer[:count]
        return chunk


def monolithic(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(head=heads, rows=result_rows())
def test_rows_last_is_byte_identical_to_one_dumps(head, rows):
    message = {**head, "rows": rows}
    assert _encode_payload(message) == monolithic(message)


@settings(max_examples=40, deadline=None)
@given(head=heads, rows=result_rows())
def test_rows_not_last_decodes_to_the_same_message(head, rows):
    message = {"rows": rows, **head}
    assert exact(json.loads(_encode_payload(message))) == exact(json.loads(monolithic(message)))


@settings(max_examples=40, deadline=None)
@given(head=heads, rows=result_rows())
def test_a_frame_round_trips_every_value_exactly(head, rows):
    message = {**head, "rows": rows}
    wire = Loopback()
    write_frame(wire, message)
    back = read_frame(wire)
    assert not wire.buffer
    assert exact(back) == exact(message)
