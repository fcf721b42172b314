"""The on-disk snapshot frame: magic, version, length, CRC, payload.

Every file a checkpoint writes — the manifest, one file per shard, the
pickled feature function — is wrapped in the same self-describing frame::

    offset  size  field
    0       6     magic  b"HZSNAP"
    6       2     format version (big-endian u16)
    8       8     payload length in bytes (big-endian u64)
    16      4     CRC-32 of the payload (big-endian u32)
    20      n     payload bytes

The frame makes the two crash shapes recovery must survive cheap to detect:
a **truncated** file fails the length check (or the CRC if the tail of the
payload itself is cut), and a **torn or bit-flipped** payload fails the CRC.
A frame written by a newer format version than the reader's raises
:class:`~repro.exceptions.SnapshotVersionError` before any payload is parsed;
every older version reads (the snapshot decoders take each one's documents).
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

from repro.exceptions import SnapshotCorruptionError, SnapshotVersionError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "WAL_MAGIC",
    "WAL_VERSION",
    "encode_frame",
    "decode_frame",
    "encode_json",
    "decode_json",
    "read_file",
    "write_file",
    "write_frame",
    "read_frame",
    "write_json_frame",
    "read_json_frame",
    "wal_header",
    "pack_wal_record",
    "scan_wal_records",
]

MAGIC = b"HZSNAP"
#: Bump on any incompatible change to the payload schemas in snapshot.py.
#: Version 2 writes a retained example's vector by reference; a version-1
#: manifest is the case with every vector inline, so both versions read.
FORMAT_VERSION = 2

_HEADER = struct.Struct(">6sHQI")

WAL_MAGIC = b"HZWLOG"
#: Bump on any incompatible change to the WAL record payload schema in wal.py.
WAL_VERSION = 1

_WAL_HEADER = struct.Struct(">6sH")
_WAL_RECORD = struct.Struct(">II")


def encode_frame(payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    """``payload`` wrapped in a snapshot frame: the header, then the payload."""
    return _HEADER.pack(MAGIC, version, len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def write_file(path: Path | str, raw: bytes) -> int:
    """Write ``raw`` to ``path``; returns the number of bytes written.

    The bytes land in a temporary sibling first and are moved into place with
    an atomic rename, so a crash mid-write leaves either the old file or no
    file — never a half-written frame under the final name.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    temp.write_bytes(raw)
    temp.replace(path)
    return len(raw)


def write_frame(path: Path | str, payload: bytes, version: int = FORMAT_VERSION) -> int:
    """Write ``payload`` to ``path`` wrapped in a snapshot frame (atomically,
    as :func:`write_file` writes).  Returns the total number of bytes written
    (header + payload)."""
    return write_file(path, encode_frame(payload, version))


def read_file(path: Path | str) -> bytes:
    """Every byte of one snapshot file, read once; a missing file is corrupt."""
    path = Path(path)
    try:
        return path.read_bytes()
    except FileNotFoundError as error:
        raise SnapshotCorruptionError(f"snapshot file {path} is missing") from error


def decode_frame(raw: bytes, path: Path | str) -> memoryview:
    """Validate the frame ``raw``, read from ``path``; returns a view of its payload.

    Raises :class:`SnapshotCorruptionError` on a short header, bad magic,
    truncated payload, or CRC mismatch, and :class:`SnapshotVersionError` when
    the frame's format version is not one from 1 to :data:`FORMAT_VERSION`.
    Nothing is allocated from the header's length field, which is only
    compared, and the payload is not copied: a caller decoding it holds one
    buffer, not two.
    """
    if len(raw) < _HEADER.size:
        raise SnapshotCorruptionError(
            f"snapshot file {path} is truncated: {len(raw)} bytes, "
            f"need at least {_HEADER.size} for the header"
        )
    magic, version, length, crc = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotCorruptionError(f"snapshot file {path} has bad magic {magic!r}")
    if not 1 <= version <= FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot file {path} is format version {version}, "
            f"this reader understands versions 1 to {FORMAT_VERSION}"
        )
    payload = memoryview(raw)[_HEADER.size :]
    if len(payload) != length:
        raise SnapshotCorruptionError(
            f"snapshot file {path} is truncated: header promises {length} payload "
            f"bytes, found {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise SnapshotCorruptionError(f"snapshot file {path} failed its CRC check")
    return payload


def read_frame(path: Path | str) -> bytes:
    """Read one file and validate its frame; returns the payload bytes."""
    return bytes(decode_frame(read_file(path), path))


def encode_json(document: object) -> bytes:
    """``document`` as the compact JSON payload every JSON frame carries."""
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def decode_json(payload: bytes | memoryview, path: Path | str) -> object:
    """Parse a frame's payload, read from ``path``, as JSON (nested too deep is corrupt)."""
    try:
        return json.loads(str(payload, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise SnapshotCorruptionError(
            f"snapshot file {path} passed its CRC but holds unparseable JSON: {error}"
        ) from error


def write_json_frame(path: Path | str, document: object, version: int = FORMAT_VERSION) -> int:
    """Serialize ``document`` as compact JSON and write it as one frame."""
    return write_frame(path, encode_json(document), version=version)


def read_json_frame(path: Path | str) -> object:
    """Read one frame and parse its payload as JSON."""
    return decode_json(read_frame(path), path)


# --- WAL segment framing -------------------------------------------------
#
# A WAL segment is an *append-only* stream, so the whole-file frame above
# (one length+CRC covering everything) cannot apply: the writer never knows
# the final length.  Instead each segment opens with a fixed 8-byte header
# and every record carries its own length and CRC::
#
#     segment: WAL_MAGIC (6) | wal version (u16) | record*
#     record:  payload length (u32) | CRC-32 of payload (u32) | payload
#
# A crash mid-append leaves a *torn tail* — a final record whose length or
# CRC check fails.  :func:`scan_wal_records` reports the tail instead of
# raising so recovery can replay every complete record and stop, which is
# exactly the contract ARIES-style logging demands of the log device.


def wal_header(version: int = WAL_VERSION) -> bytes:
    """The fixed header that opens every WAL segment file."""
    return _WAL_HEADER.pack(WAL_MAGIC, version)


def pack_wal_record(payload: bytes) -> bytes:
    """Frame one WAL record: u32 length, u32 CRC-32, payload."""
    return _WAL_RECORD.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def scan_wal_records(
    raw: bytes, path: Path | str, expected_version: int = WAL_VERSION
) -> tuple[list[bytes], int]:
    """Walk one segment's bytes; return ``(payloads, torn_bytes)``.

    ``payloads`` holds every record that passed its length and CRC checks, in
    file order.  ``torn_bytes`` counts trailing bytes that do not form a
    complete valid record (0 for a cleanly closed segment).  A bad segment
    header — wrong magic or too short to hold one — raises
    :class:`SnapshotCorruptionError`, and version skew raises
    :class:`SnapshotVersionError`: neither is a crash shape append-only
    writing can produce, so neither is silently tolerated.
    """
    if len(raw) < _WAL_HEADER.size:
        raise SnapshotCorruptionError(
            f"WAL segment {path} is truncated: {len(raw)} bytes, "
            f"need at least {_WAL_HEADER.size} for the header"
        )
    magic, version = _WAL_HEADER.unpack_from(raw)
    if magic != WAL_MAGIC:
        raise SnapshotCorruptionError(f"WAL segment {path} has bad magic {magic!r}")
    if version != expected_version:
        raise SnapshotVersionError(
            f"WAL segment {path} is format version {version}, "
            f"this reader understands version {expected_version}"
        )
    payloads: list[bytes] = []
    offset = _WAL_HEADER.size
    while offset < len(raw):
        if offset + _WAL_RECORD.size > len(raw):
            break
        length, crc = _WAL_RECORD.unpack_from(raw, offset)
        start = offset + _WAL_RECORD.size
        end = start + length
        if end > len(raw):
            break
        payload = raw[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break
        payloads.append(payload)
        offset = end
    return payloads, len(raw) - offset
