"""The wire protocol: length-prefixed JSON frames plus the error codec.

Framing
-------

Every message — in either direction — is one **frame**::

    +----------------+----------------------------+
    | 4 bytes        | N bytes                    |
    | big-endian N   | UTF-8 JSON object          |
    +----------------+----------------------------+

The length prefix counts payload bytes only.  Frames larger than
:data:`MAX_FRAME_BYTES` are rejected before any allocation happens, so a
garbage prefix (or a client speaking a different protocol) fails fast instead
of stalling the server on a multi-gigabyte read.  On the sending side
:func:`encode_frame` refuses an oversize payload before a byte is sent, so
the server answers an oversize result with an error frame and keeps the
connection; :func:`send_frame` puts an encoded frame on the socket, and
:func:`write_frame` is the two in a row.  A payload that is not UTF-8, not
JSON, nested too deeply for the decoder, or not an object is a
:class:`ProtocolError`, like a truncated frame.

Every payload is encoded by one shared ``JSONEncoder`` — one C call for a
small message, one per slice of :data:`_INCREMENTAL_ROWS` rows for a large
result set (see :func:`_encode_payload`).

JSON is the payload format because every value the SQL surface produces
(ints, floats, text, booleans, NULL) round-trips exactly through Python's
encoder — ``repr``-based float serialization means a served view's ``eps``
and ``margin`` values come back bit-identical, which the network benchmark
gates on.  ``NaN``/``Infinity`` use Python's JSON extension; both ends of
this protocol are this module.

Requests are objects with an ``op`` field:

``{"op": "query", "sql": ..., "params": [...], "options": {...}}``
    Execute one statement; ``options`` may carry ``admission_timeout_s``.
``{"op": "executemany", "sql": ..., "param_rows": [[...], ...]}``
    The prepared-statement loop; one parse/plan, N bindings.
``{"op": "ping"}``
    Health probe (used by the pool's checkout check).
``{"op": "goodbye"}``
    Clean disconnect; the server acknowledges then closes.

Responses are either ``{"ok": true, ...result fields...}`` or
``{"ok": false, "error": {...}}`` where the error object is produced by
:func:`encode_error` and reconstructed client-side by :func:`decode_error` —
the structured ``position``/``token`` diagnostics of
:class:`~repro.exceptions.SQLSyntaxError` / ``SQLPlanningError`` survive the
round trip intact.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Callable, cast

from repro import exceptions
from repro.exceptions import (
    ConnectionClosedError,
    HazyError,
    NetworkError,
    ProtocolError,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "encode_frame",
    "send_frame",
    "read_frame",
    "write_frame",
    "encode_error",
    "decode_error",
]

#: Version stamped into the server's hello frame; clients refuse a mismatch.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload.  Large enough for any result set the
#: benchmark suite produces, small enough that a corrupt length prefix fails
#: immediately instead of "allocating" gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


#: Row count per slice when a response's ``rows`` list is encoded in slices.
_INCREMENTAL_ROWS = 256

#: The one encoder every frame goes through.  ``json.dumps`` with a
#: non-default ``separators`` builds a fresh ``JSONEncoder`` per call; this
#: one is built once.  It keeps no state between calls (each ``encode`` makes
#: its own C encoder and circular-reference markers), so handler threads
#: share it.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode_payload(message: dict[str, object]) -> bytes:
    """JSON-encode one frame's payload.

    A small message is one ``_ENCODER.encode`` call.  A ``rows`` list longer
    than :data:`_INCREMENTAL_ROWS` is encoded in slices of that many rows —
    one C-level call per slice, the slices' brackets stripped and the pieces
    joined with commas — so no single call holds the GIL for a whole
    several-thousand-row scan response.  Slicing gives the GIL up no less
    often than encoding row by row did: a thread holding the GIL is only
    asked to drop it after another thread has waited a switch interval
    (5 ms by default), and one slice takes a small fraction of that.  When
    ``rows`` is the message's final key — the server builds query responses
    that way — the bytes are identical to ``json.dumps(message,
    separators=(",", ":"))``; otherwise only the key order differs, which
    JSON object semantics ignore.
    """
    rows = message.get("rows")
    if not (isinstance(rows, list) and len(rows) > _INCREMENTAL_ROWS):
        return _ENCODER.encode(message).encode("utf-8")
    head = {key: value for key, value in message.items() if key != "rows"}
    opener = _ENCODER.encode(head)[:-1] + ("," if head else "")
    body = ",".join(
        _ENCODER.encode(rows[start : start + _INCREMENTAL_ROWS])[1:-1]
        for start in range(0, len(rows), _INCREMENTAL_ROWS)
    )
    return f'{opener}"rows":[{body}]}}'.encode("utf-8")


def encode_frame(message: dict[str, object]) -> bytes:
    """Serialize ``message`` as one frame: length prefix plus payload.

    Raises :class:`ProtocolError` when the payload exceeds
    :data:`MAX_FRAME_BYTES`; nothing has been sent at that point, so the
    caller can still answer with an error frame instead.
    """
    payload = _encode_payload(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, frame: bytes) -> None:
    """Send one frame :func:`encode_frame` built."""
    try:
        sock.sendall(frame)
    except (BrokenPipeError, ConnectionResetError, OSError) as error:
        raise ConnectionClosedError(f"peer closed the connection: {error}") from error


def write_frame(sock: socket.socket, message: dict[str, object]) -> None:
    """Serialize ``message`` and send it as one frame."""
    send_frame(sock, encode_frame(message))


def _read_exactly(sock: socket.socket, count: int, *, eof_ok: bool) -> bytes | None:
    """Read exactly ``count`` bytes.

    Clean EOF before the first byte returns None when ``eof_ok`` (a peer
    hanging up between frames is a normal disconnect); EOF mid-read is always
    a :class:`ProtocolError` (a truncated frame).
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as error:
            raise exceptions.NetworkTimeoutError(
                f"timed out reading a frame ({remaining} of {count} bytes outstanding)"
            ) from error
        except (ConnectionResetError, OSError) as error:
            if not chunks and eof_ok:
                return None
            raise ConnectionClosedError(f"peer reset the connection: {error}") from error
        if not chunk:
            if not chunks and eof_ok:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({remaining} of {count} bytes missing)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket, *, eof_ok: bool = False) -> dict[str, object] | None:
    """Read one frame; None on clean EOF when ``eof_ok`` is set."""
    header = _read_exactly(sock, _LENGTH.size, eof_ok=eof_ok)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit "
            "(peer is not speaking this protocol?)"
        )
    body = _read_exactly(sock, length, eof_ok=False) if length else b""
    payload = body if body is not None else b""  # eof_ok=False never yields None
    try:
        message = json.loads(payload.decode("utf-8")) if length else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") from error
    except RecursionError as error:
        raise ProtocolError("frame payload nests too deeply to decode") from error
    if not isinstance(message, dict):
        raise ProtocolError(f"frame payload must be a JSON object, got {type(message).__name__}")
    return cast("dict[str, object]", message)


# ---------------------------------------------------------------------------
# Structured error codec
# ---------------------------------------------------------------------------
#
# Server-side exceptions cross the wire as their class name + message +
# whatever machine-readable diagnostics they carry; the client rebuilds the
# *same* exception class by looking the name up in repro.exceptions.  Only
# HazyError subclasses participate — anything else is an internal server
# fault and surfaces client-side as a generic NetworkError so the server's
# stack never leaks semantics it did not promise.

#: Attributes beyond the message that survive the round trip.
_DIAGNOSTIC_FIELDS = ("position", "token")


def encode_error(error: BaseException) -> dict[str, object]:
    """The wire form of a server-side exception."""
    payload: dict[str, object] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    for field in _DIAGNOSTIC_FIELDS:
        value = getattr(error, field, None)
        if value is not None:
            payload[field] = value
    return payload


def decode_error(payload: dict[str, object]) -> HazyError:
    """Rebuild the exception a server-side error frame describes.

    Known :class:`~repro.exceptions.HazyError` subclasses come back as
    themselves — ``except SQLPlanningError`` works identically against a
    network connection and an in-process one, with ``position``/``token``
    intact.  Unknown types degrade to :class:`NetworkError` carrying the
    original type name in the message.
    """
    type_name = str(payload.get("type", "NetworkError"))
    message = str(payload.get("message", ""))
    cls = getattr(exceptions, type_name, None)
    if not (isinstance(cls, type) and issubclass(cls, HazyError)):
        return NetworkError(f"server error [{type_name}]: {message}")
    kwargs = {
        field: payload[field] for field in _DIAGNOSTIC_FIELDS if field in payload
    }
    # The subclass lookup erases the constructor signature; WIRE001 (the
    # repro-lint wire pass) is what statically guarantees cls(message) works.
    factory = cast("Callable[..., HazyError]", cls)
    try:
        return factory(message, **kwargs) if kwargs else factory(message)
    except TypeError:
        # The class does not accept the diagnostics keywords; attach them.
        error = factory(message)
        for field, value in kwargs.items():
            setattr(error, field, value)
        return error
