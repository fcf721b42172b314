"""A checkpoint has one shape: every document that departs from it is refused.

The reader requires each field the writer writes, typed as the writer types
it, and one entry per shard in every per-shard list.  This table feeds the
reader generated departures from the committed full checkpoint
(``tests/persist/data/full``, format version 1): each key of the manifest
and of a JSON shard document dropped, each set to a JSON type the writer
never writes there, each per-shard list one entry short, plus a few rows
found by hand.  A mutated shard file is re-framed and its digest refreshed
in the manifest, so the CRC and the digest check vouch for the bytes and
only the content is wrong.

The ``columns`` rows do the same to that checkpoint's shard 0 as today's
writer writes it (format version 3, binary columns): each head key dropped
and mistyped, each section's count made negative, grown past the payload
and left out of the head, and one row per rule the column decoder
enforces (entry counts that do not sum, a negative or repeated index, a
zero value, a label the writer never writes, ids, eps, labels or digests
not one per record).

Every row must raise a :class:`~repro.exceptions.SnapshotError` subclass —
from :func:`load_checkpoint`, or for the documents that decode (a Hazy
shard without its stored model), the ``MaintenanceError`` ``RESTORE VIEW``
raises when the maintainer imports it.  None may load, and none may raise a
raw builtin.
"""

from __future__ import annotations

import copy
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import MaintenanceError, SnapshotCorruptionError, SnapshotError
from repro.persist import FEATURES_NAME, MANIFEST_NAME, load_checkpoint, shard_file_sha
from repro.persist.checkpoint import decode_shard, shard_file_name
from repro.persist.columns import pack_columns, unpack_columns
from repro.persist.format import read_json_frame, write_frame, write_json_frame
from repro.persist.snapshot import _SHARD_SECTIONS

from tests.persist.test_checkpoint_format import corpus, engine_over, shard_fields

FULL = Path(__file__).with_name("data") / "full"
SHARD = shard_file_name(0)
DOCUMENTS = {
    "manifest": read_json_frame(FULL / MANIFEST_NAME),
    "shard": read_json_frame(FULL / SHARD),
}
#: Shard 0 as the writer writes it today: its head and its columns.
PAYLOAD = decode_shard((FULL / SHARD).read_bytes(), FULL / SHARD).to_document()
COLUMNS = unpack_columns(PAYLOAD, _SHARD_SECTIONS)
PER_SHARD = ("shard_files", "shard_epochs", "shard_shas", "shard_entities", "shard_sources")
#: Free-form: any JSON value is a positive label.
FREE_FORM = {"positive_label"}


def wrong_types(value: object) -> list[object]:
    """JSON values of a type the writer never writes where ``value`` stands."""
    if isinstance(value, bool):
        return [{}, "true"]
    if isinstance(value, (int, float)):
        return [{}, "1"]
    if isinstance(value, str):
        return [{}, 3]
    if isinstance(value, list):
        return [{}, "[]"]
    if isinstance(value, dict):
        return ["{}"]
    return [{}]  # a null the writer fills with a string or a list elsewhere


def drop(key):
    return lambda document: document.pop(key)


def assign(key, value):
    return lambda document: document.__setitem__(key, value)


def shorten(key):
    # A full checkpoint's ``shard_sources`` is null: one entry for two shards.
    return lambda document: document.__setitem__(key, (document[key] or [None, None])[:-1])


#: An example's features slot that does not resolve, set on the second example:
#: an index must name an earlier example, and nothing but ``null``, an int or
#: a vector is a slot.
BAD_SLOTS = {
    "self-index": 1,
    "forward-index": 2,
    "out-of-range-index": 10**6,
    "negative-index": -1,
    "bool": True,
    "str": "0",
    "list": [],
}


def set_slot(position, slot):
    return lambda document: document["examples"][position].__setitem__(1, slot)


def cases():
    for target, document in DOCUMENTS.items():
        for key, value in document.items():
            yield pytest.param(target, drop(key), key, id=f"{target}-drop-{key}")
            if key in FREE_FORM:
                continue
            for wrong in wrong_types(value):
                yield pytest.param(
                    target, assign(key, wrong), key, id=f"{target}-{key}-as-{type(wrong).__name__}"
                )
    for key in PER_SHARD:
        yield pytest.param("manifest", shorten(key), key, id=f"manifest-shorten-{key}")
    yield pytest.param(
        "manifest",
        assign("has_feature_function", False),
        "has_feature_function",
        id="manifest-has_feature_function-false",
    )
    yield pytest.param(
        "manifest",
        assign("shard_epochs", ["a", "b"]),
        "shard_epochs",
        id="manifest-shard_epochs-of-str",
    )
    yield pytest.param(
        "manifest",
        lambda document: document.update(
            num_shards=0, shard_files=[], shard_epochs=[], shard_shas=[], shard_entities=[]
        ),
        "num_shards",
        id="manifest-no-shards",
    )
    yield pytest.param(
        "manifest",
        lambda document: [document[key].reverse() for key in PER_SHARD if document[key]],
        None,
        id="manifest-shards-swapped",
    )
    yield pytest.param(
        "shard",
        lambda document: document["records"][0].pop(),
        "records",
        id="shard-record-of-3-fields",
    )
    yield pytest.param(
        "shard",
        lambda document: document["row_hashes"].pop(),
        "row_hashes",
        id="shard-row_hashes-short",
    )
    for name, slot in BAD_SLOTS.items():
        yield pytest.param(
            "manifest", set_slot(1, slot), "examples", id=f"manifest-example-slot-{name}"
        )
    yield pytest.param(
        "manifest",
        lambda document: document["examples"][0].__setitem__(slice(0, 2), [10**9, None]),
        "examples",
        id="manifest-example-of-a-dangling-entity",
    )
    yield from column_cases()
    yield pytest.param("features", None, None, id="features-not-a-pickle")


def on_head(mutate):
    return lambda head, columns, counts: mutate(head)


def set_count(name, count):
    return lambda head, columns, counts: counts.__setitem__(name, count)


def set_entry(name, position, value):
    return lambda head, columns, counts: columns[name].__setitem__(position, value)


def shorten_column(name):
    return lambda head, columns, counts: columns.__setitem__(name, columns[name][:-1])


def repeat_first_id(head, columns, counts):
    head["ids"][1] = head["ids"][0]


def shift_first_count(head, columns, counts):
    # Record 0 claims -1 entries and record 1 the rest: the counts still sum.
    columns["nnz"][1] += columns["nnz"][0] + 1
    columns["nnz"][0] = -1


def repeat_an_index(head, columns, counts):
    assert columns["nnz"][0] >= 2
    columns["indices"][1] = columns["indices"][0]


def drop_the_stored_model(head, columns, counts):
    head["stored_model"] = None
    columns["stored_model.weights"] = columns["stored_model.weights"][:0]


def column_cases():
    head, columns = COLUMNS
    for key, value in head.items():
        yield pytest.param("columns", on_head(drop(key)), key, id=f"columns-drop-{key}")
        for wrong in wrong_types(value):
            yield pytest.param(
                "columns",
                on_head(assign(key, wrong)),
                key,
                id=f"columns-{key}-as-{type(wrong).__name__}",
            )
    for key, wrong in (("sections", "{}"), ("sections", [])):
        yield pytest.param(
            "columns", on_head(assign(key, wrong)), key, id=f"columns-{key}-as-{type(wrong).__name__}"
        )
    for name, column in columns.items():
        yield pytest.param("columns", set_count(name, -1), name, id=f"columns-{name}-count-negative")
        yield pytest.param(
            "columns", set_count(name, len(column) + 8), name, id=f"columns-{name}-count-grown"
        )
        yield pytest.param(
            "columns",
            lambda head, columns, counts, name=name: counts.pop(name),
            "sections",
            id=f"columns-{name}-unlisted",
        )
        yield pytest.param(
            "columns", set_count(name, True), name, id=f"columns-{name}-count-as-bool"
        )
    for row, mutate, key in (
        ("nnz-negative-entry", shift_first_count, "nnz"),
        ("nnz-sum-short", set_entry("nnz", 0, columns["nnz"][0] - 1), "nnz"),
        ("nnz-sum-long", set_entry("nnz", 0, columns["nnz"][0] + 1), "nnz"),
        ("indices-negative", set_entry("indices", 0, -1), "indices"),
        ("indices-repeated-in-a-record", repeat_an_index, "indices"),
        ("values-zero", set_entry("values", 0, 0.0), "values"),
        ("values-negative-zero", set_entry("values", 0, -0.0), "values"),
        ("values-short", shorten_column("values"), "values"),
        ("labels-zero", set_entry("labels", 0, 0), "labels"),
        ("labels-two", set_entry("labels", 0, 2), "labels"),
        ("labels-short", shorten_column("labels"), "labels"),
        ("eps-short", shorten_column("eps"), "eps"),
        ("digests-short", shorten_column("digests"), "digests"),
        ("ids-short", on_head(lambda head: head["ids"].pop()), "ids"),
        ("ids-repeated", repeat_first_id, "ids"),
        ("ids-of-a-list", on_head(lambda head: head["ids"].__setitem__(0, [1])), "ids"),
        (
            "stored_model-null-with-weights",
            on_head(assign("stored_model", None)),
            "stored_model.weights",
        ),
        ("stored_model-null", drop_the_stored_model, None),
        ("head-longer-than-the-payload", "head-length", "head"),
        ("head-not-json", "head-garbled", "head"),
        ("head-not-an-object", "head-list", "head"),
        ("payload-without-a-head-length", "payload-short", "head"),
    ):
        yield pytest.param("columns", mutate, key, id=f"columns-{row}")


#: Raw damage to the payload itself, which no head or column holds.
RAW_DAMAGE = {
    "head-length": lambda payload: struct.pack("<Q", len(payload)) + payload[8:],
    "head-garbled": lambda payload: payload[:8] + b"x" + payload[9:],
    "head-list": lambda payload: struct.pack("<Q", 2) + b"[]" + bytes(6),
    "payload-short": lambda payload: payload[:7],
}


def mutated_payload(mutate) -> bytes:
    """Shard 0's v3 payload with its head, columns or head counts mutated
    (the counts are written as mutated; the columns as they then stand)."""
    if isinstance(mutate, str):
        return RAW_DAMAGE[mutate](PAYLOAD)
    head, columns = copy.deepcopy(COLUMNS)
    unmutated = {name: len(column) for name, column in columns.items()}
    counts = dict(unmutated)
    mutate(head, columns, counts)
    packed = pack_columns(head, list(columns.values()), _SHARD_SECTIONS)
    if counts == unmutated and "sections" not in head:
        return packed
    # Rewrite the head alone: the sections stay where the columns put them.
    (length,) = struct.unpack_from("<Q", packed)
    body = packed[-(-(8 + length) // 8) * 8 :]
    document = {**head, "sections": counts} if "sections" not in head else head
    encoded = json.dumps(document, separators=(",", ":")).encode()
    return struct.pack("<Q", len(encoded)) + encoded + bytes(-(8 + len(encoded)) % 8) + body


CASES = list(cases())


def mutated_checkpoint(root: Path, target: str, mutate) -> Path:
    """A copy of the full checkpoint with one document mutated and re-framed."""
    directory = root / "full"
    shutil.copytree(FULL, directory)
    if target == "features":
        write_frame(directory / FEATURES_NAME, b"not a pickle")
        return directory
    documents = copy.deepcopy(DOCUMENTS)
    if target == "columns":
        write_frame(directory / SHARD, mutated_payload(mutate))
    else:
        mutate(documents[target])
    if target == "shard":
        write_json_frame(directory / SHARD, documents["shard"], version=1)
    if target in ("shard", "columns"):
        documents["manifest"]["shard_shas"][0] = shard_file_sha(directory / SHARD)
    write_json_frame(directory / MANIFEST_NAME, documents["manifest"])
    return directory


def test_the_table_covers_every_key_the_writer_writes():
    ids = {case.id for case in CASES}
    for target, document in DOCUMENTS.items():
        assert {f"{target}-drop-{key}" for key in document} <= ids
    assert len(CASES) >= 2 * (len(DOCUMENTS["manifest"]) + len(DOCUMENTS["shard"]))
    head, columns = unpack_columns(PAYLOAD, _SHARD_SECTIONS)
    assert list(columns) == list(_SHARD_SECTIONS)
    assert {f"columns-drop-{key}" for key in head} <= ids
    for name in columns:
        assert {f"columns-{name}-{row}" for row in ("count-negative", "count-grown", "unlisted")} <= ids


def test_the_unmutated_columns_load_to_the_committed_state(tmp_path):
    """The table's base: shard 0 rewritten as columns, nothing mutated, loads
    to the state its JSON document holds."""
    directory = mutated_checkpoint(tmp_path, "columns", lambda head, columns, counts: None)
    assert (directory / SHARD).read_bytes()[6:8] == b"\x00\x03"
    loaded, committed = load_checkpoint(directory), load_checkpoint(FULL)
    assert [shard_fields(state) for state in loaded.shard_states] == [
        shard_fields(state) for state in committed.shard_states
    ]


#: The documents that decode: a naive shard has no stored model, so only the
#: Hazy maintainer importing it can tell it is short.
DECODES = {"shard-drop-stored_model", "columns-stored_model-null"}


@pytest.mark.parametrize("target, mutate, key", CASES)
def test_a_checkpoint_off_the_writers_shape_is_refused(request, tmp_path, target, mutate, key):
    directory = mutated_checkpoint(tmp_path, target, mutate)
    if request.node.callspec.id in DECODES:
        engine = engine_over(corpus(), "before_full")
        with pytest.raises(MaintenanceError, match="stored model"):
            engine.database.execute(f"RESTORE VIEW Labeled_Papers FROM '{directory}'")
        assert not engine.views
        return
    with pytest.raises(SnapshotError) as raised:
        load_checkpoint(directory)
    if key is not None:
        # Named by file and by field.
        assert isinstance(raised.value, SnapshotCorruptionError)
        assert repr(key) in str(raised.value) and str(directory) in str(raised.value)
