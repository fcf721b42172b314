"""A payload of binary columns: a JSON head, then 8-byte-aligned arrays.

A shard's state is mostly arrays — every stored vector is an ``int32`` index
array and a ``float64`` value array — so from format version 3 a shard file
writes them as arrays, and a restore reads each back with one
``np.frombuffer``.  The payload (inside the frame of
:mod:`repro.persist.format`) is::

    offset  size   field
    0       8      head length h (little-endian u64)
    8       h      the head: compact JSON, an object
    ...            zero padding to a multiple of 8
    then each section, in the order the head's "sections" object lists
    them: count x itemsize bytes, little-endian, zero-padded to a multiple
    of 8 (the last one too)

The head's ``"sections"`` maps each section's name to its element count; the
writer of a schema (:meth:`repro.persist.snapshot.ShardState.to_document`)
fixes each section's dtype, and the reader passes the same table.  Floats
are written as their bits, so NaN payloads, ``-0.0`` and infinities
round-trip exactly.

:func:`unpack_columns` checks every count — an ``int``, not negative — and
that the sections tile the payload to the byte *before* it allocates
anything from one, then copies each section out once into an aligned,
native-order array: a view would leave unaligned arrays on the margin hot
path, and a copy per value would be the parse this format removes.  Any
departure raises a ``ValueError`` naming the section (``'head'`` and
``'sections'`` for the two framing fields), which the checkpoint reader
turns into a :class:`~repro.exceptions.SnapshotCorruptionError` naming the
file.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping, Sequence

import numpy as np

__all__ = ["ALIGNMENT", "pack_columns", "unpack_columns"]

#: Every section starts at a multiple of this many payload bytes.
ALIGNMENT = 8

_HEAD_LENGTH = struct.Struct("<Q")


def _padded(size: int) -> int:
    return -(-size // ALIGNMENT) * ALIGNMENT


def pack_columns(
    head: Mapping[str, object], columns: Sequence[np.ndarray], dtypes: Mapping[str, np.dtype]
) -> bytes:
    """``head`` (plus its ``"sections"`` counts) and ``columns``, one per
    section of ``dtypes`` in its order and written as that section's dtype,
    laid out as the module docstring describes."""
    counts = {name: len(column) for name, column in zip(dtypes, columns)}
    encoded = json.dumps({**head, "sections": counts}, separators=(",", ":")).encode("utf-8")
    parts = [_HEAD_LENGTH.pack(len(encoded)), encoded]
    size = _HEAD_LENGTH.size + len(encoded)
    for column, dtype in zip(columns, dtypes.values()):
        parts.append(bytes(_padded(size) - size))
        data = np.ascontiguousarray(column, dtype=dtype).tobytes()
        parts.append(data)
        size = _padded(size) + len(data)
    parts.append(bytes(_padded(size) - size))
    return b"".join(parts)


def unpack_columns(
    payload: bytes | memoryview, dtypes: Mapping[str, np.dtype]
) -> tuple[dict[str, object], dict[str, np.ndarray]]:
    """The head (without ``"sections"``) and every section of ``payload``, by name.

    ``dtypes`` names the sections the schema has, in file order, with each
    one's on-disk dtype; the head must list exactly those.
    """
    payload = memoryview(payload)
    if len(payload) < _HEAD_LENGTH.size:
        raise ValueError(f"'head': a payload of {len(payload)} bytes has no head length")
    (length,) = _HEAD_LENGTH.unpack_from(payload)
    if length > len(payload) - _HEAD_LENGTH.size:
        raise ValueError(f"'head': a head of {length} bytes runs past the payload's {len(payload)}")
    try:
        head = json.loads(str(payload[_HEAD_LENGTH.size : _HEAD_LENGTH.size + length], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise ValueError(f"'head': not a JSON document: {error}") from None
    if type(head) is not dict:
        raise ValueError(f"'head': a {type(head).__name__}, not an object")
    counts = head.pop("sections", None)
    if type(counts) is not dict or list(counts) != list(dtypes):
        raise ValueError(f"'sections': {counts!r:.200} does not list the sections {list(dtypes)}")
    offsets: dict[str, int] = {}
    end = _HEAD_LENGTH.size + length
    for name, count in counts.items():
        if type(count) is not int or count < 0:
            raise ValueError(f"{name!r}: the count {count!r} is not a non-negative integer")
        offsets[name] = _padded(end)
        end = offsets[name] + count * np.dtype(dtypes[name]).itemsize
    if _padded(end) != len(payload):
        raise ValueError(
            f"'sections': the counts {counts} lay out {_padded(end)} payload bytes, "
            f"the payload holds {len(payload)}"
        )
    columns = {
        name: np.frombuffer(payload, dtypes[name], count, offsets[name]).astype(
            np.dtype(dtypes[name]).newbyteorder("=")
        )
        for name, count in counts.items()
    }
    return head, columns
