"""A checkpoint has one shape: every document that departs from it is refused.

The reader requires each field the writer writes, typed as the writer types
it, and one entry per shard in every per-shard list.  This table feeds the
reader generated departures from the committed full checkpoint
(``tests/persist/data/full``): each key of the manifest and of a shard
document dropped, each set to a JSON type the writer never writes there,
each per-shard list one entry short, plus a few rows found by hand.  A
mutated shard file is re-framed and its digest refreshed in the manifest,
so the CRC and the digest check vouch for the bytes and only the content is
wrong.

Every row must raise a :class:`~repro.exceptions.SnapshotError` subclass —
from :func:`load_checkpoint`, or for the one document that decodes (a Hazy
shard without its stored model), the ``MaintenanceError`` ``RESTORE VIEW``
raises when the maintainer imports it.  None may load, and none may raise a
raw builtin.
"""

from __future__ import annotations

import copy
import shutil
from pathlib import Path

import pytest

from repro.exceptions import MaintenanceError, SnapshotCorruptionError, SnapshotError
from repro.persist import FEATURES_NAME, MANIFEST_NAME, load_checkpoint, shard_file_sha
from repro.persist.checkpoint import shard_file_name
from repro.persist.format import read_json_frame, write_frame, write_json_frame

from tests.persist.test_checkpoint_format import corpus, engine_over

FULL = Path(__file__).with_name("data") / "full"
SHARD = shard_file_name(0)
DOCUMENTS = {
    "manifest": read_json_frame(FULL / MANIFEST_NAME),
    "shard": read_json_frame(FULL / SHARD),
}
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
    yield pytest.param("features", None, None, id="features-not-a-pickle")


CASES = list(cases())


def mutated_checkpoint(root: Path, target: str, mutate) -> Path:
    """A copy of the full checkpoint with one document mutated and re-framed."""
    directory = root / "full"
    shutil.copytree(FULL, directory)
    if target == "features":
        write_frame(directory / FEATURES_NAME, b"not a pickle")
        return directory
    documents = copy.deepcopy(DOCUMENTS)
    mutate(documents[target])
    if target == "shard":
        write_json_frame(directory / SHARD, documents["shard"])
        documents["manifest"]["shard_shas"][0] = shard_file_sha(directory / SHARD)
    write_json_frame(directory / MANIFEST_NAME, documents["manifest"])
    return directory


def test_the_table_covers_every_key_the_writer_writes():
    ids = {case.id for case in CASES}
    for target, document in DOCUMENTS.items():
        assert {f"{target}-drop-{key}" for key in document} <= ids
    assert len(CASES) >= 2 * (len(DOCUMENTS["manifest"]) + len(DOCUMENTS["shard"]))


#: The one document that decodes: a naive shard has no stored model, so only
#: the Hazy maintainer importing it can tell it is short.
DECODES = "shard-drop-stored_model"


@pytest.mark.parametrize("target, mutate, key", CASES)
def test_a_checkpoint_off_the_writers_shape_is_refused(request, tmp_path, target, mutate, key):
    directory = mutated_checkpoint(tmp_path, target, mutate)
    if request.node.callspec.id == DECODES:
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
