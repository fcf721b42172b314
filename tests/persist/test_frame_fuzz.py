"""Byte-level fuzz of the snapshot frame decoder.

Every manifest and shard frame of the committed checkpoints under
``tests/persist/data/`` (format version 1), and the manifests and shard
files the same program writes today (version 3: examples by reference,
shards as binary columns), is truncated, bit-flipped, spliced with another
frame and given a grown length field, and each result is decoded from its
bytes the way :func:`~repro.persist.load_checkpoint` decodes a file it has
read: :func:`~repro.persist.format.decode_frame`, then the JSON document or
the columns, then the schema.  Each input must decode to the recorded state
or raise a :class:`~repro.exceptions.SnapshotError` subclass; a raw
exception, a hang or an allocation beyond a few megabytes fails the test.

A second family re-frames a damaged *payload* under a fresh, valid CRC (and
the frame's own version), so the payload decoders see the bytes: those
inputs may decode to some other state, but they too must raise nothing
other than a ``SnapshotError``.  A column count grown past the payload is
refused before anything is allocated from it.
"""

from __future__ import annotations

import json
import random
import struct
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.exceptions import SnapshotError, SnapshotVersionError
from repro.persist import MANIFEST_NAME
from repro.persist.checkpoint import _decoded, decode_shard
from repro.persist.format import decode_frame, decode_json, encode_frame, frame_version
from repro.persist.snapshot import CheckpointManifest

from tests.persist.test_checkpoint_format import run_program, shard_fields

DATA = Path(__file__).with_name("data")
RECORDED = [
    path
    for directory in ("full", "incremental")
    for path in sorted((DATA / directory).glob("*.hzs"))
    if path.name != "features.hzs"
]
#: Offset and width of the header's payload-length field (after magic and version).
LENGTH_FIELD = slice(8, 16)
HEADER_BYTES = 20


@pytest.fixture(scope="module")
def frames(tmp_path_factory) -> list[Path]:
    """The recorded frames, then the manifests and shard files the program
    writes today (the incremental rewrites one shard)."""
    root = tmp_path_factory.mktemp("fresh")
    run_program(root)
    return RECORDED + sorted(
        path
        for name in ("full", "incremental")
        for path in (root / name).glob("*.hzs")
        if path.name != "features.hzs"
    )


def decode(path: Path, raw: bytes):
    """What ``load_checkpoint`` makes of ``raw`` read from ``path``."""
    if path.name != MANIFEST_NAME:
        return decode_shard(raw, path)
    document = decode_json(decode_frame(raw, path), path)
    return _decoded(str(path), document, CheckpointManifest.from_document)


def truncations(raw: bytes) -> list[bytes]:
    cuts = {*range(HEADER_BYTES + 2), *range(0, len(raw), max(1, len(raw) // 40)), len(raw) - 1}
    return [raw[:cut] for cut in sorted(cuts)]


def flips(raw: bytes, rng: random.Random) -> list[bytes]:
    positions = [*range(HEADER_BYTES), *rng.sample(range(HEADER_BYTES, len(raw)), 40)]
    damaged = []
    for position in positions:
        bits = range(8) if position < HEADER_BYTES else (0, 7)
        for bit in bits:
            copy = bytearray(raw)
            copy[position] ^= 1 << bit
            damaged.append(bytes(copy))
    return damaged


def splices(raw: bytes, other: bytes, rng: random.Random) -> list[bytes]:
    spliced = [
        other[:HEADER_BYTES] + raw[HEADER_BYTES:],  # another frame's header
        raw[:HEADER_BYTES] + other[HEADER_BYTES:],  # another frame's payload
        raw + other,  # trailing bytes
        raw + raw,
    ]
    for _ in range(10):
        cut = rng.randrange(1, min(len(raw), len(other)))
        spliced.append(raw[:cut] + other[cut:])
        start = rng.randrange(len(raw) - 8)
        width = rng.randrange(1, 64)
        spliced.append(raw[:start] + other[start : start + width] + raw[start + width :])
    return spliced


def grown_lengths(raw: bytes) -> list[bytes]:
    (length,) = struct.unpack(">Q", raw[LENGTH_FIELD])
    head, tail = raw[: LENGTH_FIELD.start], raw[LENGTH_FIELD.stop :]
    values = (length + 1, length + 4096, 2**31, 2**32 + length, 2**63, 2**64 - 1)
    return [head + struct.pack(">Q", value) + tail for value in values]


def reframed(raw: bytes, rng: random.Random) -> list[bytes]:
    """Damaged payloads under a valid frame of the same version: the payload
    and schema decoders see them."""
    payload, version = raw[HEADER_BYTES:], frame_version(raw)
    damaged = [payload[:cut] for cut in range(0, len(payload), max(1, len(payload) // 30))]
    for position in rng.sample(range(len(payload)), 60):
        damaged.append(payload[:position] + bytes([rng.randrange(256)]) + payload[position + 1 :])
    damaged += [b"", b"null", b"[]", b"{}", b"\xff\xfe", b"[" * 100_000, b'{"a":' * 50_000]
    return [encode_frame(payload, version) for payload in damaged]


def outcome(path: Path, raw: bytes):
    """The decoded state, or None when the input was refused as a ``SnapshotError``."""
    try:
        return decode(path, raw)
    except SnapshotError:
        return None


def test_every_damaged_frame_decodes_to_its_recorded_state_or_is_refused(frames):
    rng = random.Random(7)
    raws = {path: path.read_bytes() for path in frames}
    paths = list(raws)
    fed = 0
    tracemalloc.start()
    started = time.perf_counter()
    try:
        for path, raw in raws.items():
            recorded = decode(path, raw).to_document()
            other = raws[paths[(paths.index(path) + 1) % len(paths)]]
            inputs = truncations(raw) + flips(raw, rng) + splices(raw, other, rng)
            inputs += grown_lengths(raw)
            for damaged in inputs:
                state = outcome(path, damaged)
                assert state is None or state.to_document() == recorded, (path, damaged[:40])
            valid_frames = reframed(raw, rng)
            for damaged in valid_frames:
                outcome(path, damaged)
            fed += len(inputs) + len(valid_frames)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"fed {fed} inputs in {elapsed:.2f} s, peak {peak / 2**20:.1f} MiB traced")
    assert fed > 2000
    assert peak < 32 * 2**20, "a length field drove an allocation"
    assert elapsed < 30.0, "the decoder is too slow to be bounded"


def test_a_grown_length_field_is_refused_before_any_payload_is_parsed():
    raw = RECORDED[0].read_bytes()
    for damaged in grown_lengths(raw):
        try:
            decode_frame(damaged, "grown")
        except SnapshotError as error:
            assert "truncated" in str(error)
        else:
            raise AssertionError("a grown length field decoded")


def grown_counts(payload: bytes) -> list[bytes]:
    """A v3 shard payload with each column count in its head set far past the
    payload's length (4 GiB of bytes at least), the head rewritten in place
    of the old one."""
    (length,) = struct.unpack_from("<Q", payload)
    head = json.loads(payload[8 : 8 + length])
    body = payload[8 + length :]
    grown = []
    for name in head["sections"]:
        for count in (2**32, 2**40, 2**62):
            document = {**head, "sections": {**head["sections"], name: count}}
            encoded = json.dumps(document, separators=(",", ":")).encode()
            grown.append(struct.pack("<Q", len(encoded)) + encoded + body)
    return grown


def test_a_column_count_past_the_payload_allocates_nothing(frames):
    columns = [path for path in frames if frame_version(path.read_bytes()) == 3]
    columns = [path for path in columns if path.name != MANIFEST_NAME]
    assert columns
    for path in columns:
        damaged = [encode_frame(payload) for payload in grown_counts(path.read_bytes()[HEADER_BYTES:])]
        tracemalloc.start()
        try:
            for raw in damaged:
                with pytest.raises(SnapshotError, match="'sections'"):
                    decode(path, raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, "a column count drove an allocation"


def canonical(state):
    """A decoded manifest's document, or a decoded shard's fields by their bits."""
    return state.to_document() if isinstance(state, CheckpointManifest) else shard_fields(state)


def test_version_1_to_3_frames_read_and_version_4_is_refused(frames):
    versions = set()
    for path in frames:
        raw = path.read_bytes()
        version = frame_version(raw)
        versions.add(version)
        state = decode(path, raw)
        if path.name == MANIFEST_NAME or version < 3:
            # A manifest, or a shard's JSON document: the decode is the document.
            document = decode_json(decode_frame(raw, path), path)
            if path.name == MANIFEST_NAME:
                assert state.to_document() == document
            else:
                assert canonical(decode(path, encode_frame(state.to_document()))) == canonical(
                    state
                )
        else:
            assert state.to_document() == bytes(decode_frame(raw, path))
        with pytest.raises(SnapshotVersionError, match="format version 4"):
            decode(path, encode_frame(decode_frame(raw, path), version=4))
    assert versions == {1, 3}
