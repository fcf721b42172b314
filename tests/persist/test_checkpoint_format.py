"""The on-disk checkpoint format did not move.

``tests/persist/data/`` holds what one fixed program left on disk when it ran
on the commit *before* a served view got one published state (ISSUE 23's
parent, 9ba4c24): a full checkpoint, an incremental one that rewrites one of
its two shards and references the other, the write-ahead log as the crash
left it, and the answers the live server gave at the two cuts.  The tests
here restore those directories with the code as it is now and require the
recorded answers, then run the same program again and require manifests with
the same keys — and, the program being deterministic, the same values — and
shard files that decode to the same states, but for four fields that moved
on purpose:

* the manifest's view definition has lost its never-filled ``options`` field
  (:func:`without_options`);
* the retained examples are written by reference since format version 2, so
  the two ``examples`` documents differ, and must resolve through
  :func:`load_checkpoint` to the same examples (:func:`retrain_input`);
* a shard file is binary columns since format version 3, not a JSON
  document, so the shard files are compared as the states
  :func:`load_checkpoint` decodes from them (:func:`shard_fields`), every
  float by its bits;
* a shard digest covers the file's bytes, so ``shard_shas`` name other
  bytes than the recorded ones (``load_checkpoint`` checks each against its
  file).

Regenerate (only when the format is *meant* to move, from a checkout of the
commit whose format is the reference) with
``PYTHONPATH=<that checkout>/src python tests/persist/test_checkpoint_format.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from repro import HazyEngine
from repro.exceptions import SnapshotCorruptionError
from repro.persist import MANIFEST_NAME, load_checkpoint, shard_file_sha
from repro.persist.format import frame_version, read_frame, read_json_frame, write_json_frame
from repro.workloads.synth_text import SparseCorpusGenerator

from tests.persist.test_checkpoint_restore import DDL, build_engine_database

DATA = Path(__file__).with_name("data")

#: Values that name a directory: an incremental manifest references its
#: parent's shard files by absolute path.
PATH_KEYS = ("shard_sources", "parent")

#: The blake2b-128 digest of every committed file: the image is the
#: reference, so no change to the code may rewrite it.
IMAGE_DIGESTS = {
    "answers.json": "69d27b33fa93b2498cda29eb72060509",
    "full/MANIFEST.hzs": "d5278c36c1840f0a3089bcc5564debb8",
    "full/features.hzs": "2314416b8203460be515d3e59e9ce5f7",
    "full/shard-0000.hzs": "806891a84cf144d27cdbd7bbc6b8bf1e",
    "full/shard-0001.hzs": "b3bdfc69fa8bf4684ee54c8c3ba53124",
    "incremental/MANIFEST.hzs": "914d27192746fd5fa82f850a6081dddf",
    "incremental/features.hzs": "2314416b8203460be515d3e59e9ce5f7",
    "incremental/shard-0000.hzs": "b252eb3bff2a9a60fafd0d63fe37f17f",
    "wal/wal-0000000000000009.hzl": "738626d1b70d17685e24b03235bf9dc5",
    "wal/wal-0000000000000010.hzl": "a6ca61015d3493b94f65eedbf896c6f1",
    "wal/wal-0000000000000011.hzl": "fcaf361e44b06569f72226ac2137b281",
    "wal/wal-0000000000000012.hzl": "cdf200ee4ed067d741f10eeae670db83",
    "wal/wal-0000000000000013.hzl": "b94332ef157c0bfceebed4fa9c83f19f",
}


def without_options(definition: dict) -> dict:
    """A recorded manifest's view definition as written today: the image's
    carries an ``options`` field that no statement ever filled (always
    ``{}``), and the definition no longer has it."""
    assert definition["options"] == {}
    return {key: value for key, value in definition.items() if key != "options"}


def corpus():
    return SparseCorpusGenerator(
        vocabulary_size=120, nonzeros_per_document=8, positive_fraction=0.4, seed=23
    ).generate_list(48)


def churn(docs):
    """The three bursts of SQL the program issues, one per cut."""
    examples = "INSERT INTO example_papers (id, label) VALUES (?, ?)"
    papers = "INSERT INTO papers (id, title) VALUES (?, ?)"
    return {
        # Moves the model: every shard is dirty at the full checkpoint.
        "before_full": [
            (examples, (doc.entity_id, "database" if doc.label == 1 else "other"))
            for doc in docs[12:20]
        ],
        # One new paper: exactly one shard is dirty at the incremental one.
        "before_incremental": [(papers, (700_001, docs[3].text))],
        # Only the WAL carries these across the crash.
        "after_incremental": [
            (examples, (docs[21].entity_id, "database")),
            ("UPDATE papers SET title = ? WHERE id = ?", (docs[5].text, docs[30].entity_id)),
            (papers, (700_002, docs[4].text)),
            ("DELETE FROM papers WHERE id = ?", (docs[31].entity_id,)),
        ],
    }


def engine_over(docs, *bursts) -> HazyEngine:
    """A hazy/eager/main-memory engine over the base tables after ``bursts``."""
    db = build_engine_database(docs, examples=12)
    for burst in bursts:
        for sql, parameters in churn(docs)[burst]:
            db.execute(sql, parameters)
    return HazyEngine(db, architecture="mainmemory", strategy="hazy", approach="eager")


def answers(server) -> dict[str, object]:
    return {
        "contents": sorted(server.contents().items()),
        "top_k": [[entity_id, repr(margin)] for entity_id, margin in server.top_k(25)],
    }


def run_program(root: Path) -> dict[str, object]:
    """Serve, checkpoint in full, checkpoint incrementally, keep writing; every
    write is flushed on its own so epochs and WAL segments do not depend on
    how writes fall into maintenance rounds."""
    docs = corpus()
    engine = engine_over(docs)
    db = engine.database
    db.execute(DDL)
    db.execute(f"SERVE VIEW Labeled_Papers WITH (shards = 2, wal = '{root / 'wal'}')")
    server = engine.view("Labeled_Papers").server
    recorded = {}
    try:
        for burst, cut in (
            ("before_full", f"CHECKPOINT VIEW Labeled_Papers TO '{root / 'full'}'"),
            (
                "before_incremental",
                f"CHECKPOINT VIEW Labeled_Papers TO '{root / 'incremental'}' "
                "WITH (incremental = true)",
            ),
            ("after_incremental", None),
        ):
            for sql, parameters in churn(docs)[burst]:
                db.execute(sql, parameters)
                server.flush()
            recorded[burst] = answers(server)
            if cut is not None:
                recorded[burst]["info"] = {
                    key: value
                    for key, value in db.execute(cut).rows[0].items()
                    if key in ("epoch", "entities", "shards_written")
                }
    finally:
        server.close()
    return recorded


def documents(root: Path) -> dict[str, dict]:
    """The manifest of each of the two checkpoints, by relative file name."""
    return {
        f"{name}/{MANIFEST_NAME}": read_json_frame(root / name / MANIFEST_NAME)
        for name in ("full", "incremental")
    }


def _bits(value) -> str:
    return float(value).hex()


def _model_fields(model) -> tuple | None:
    if model is None:
        return None
    return (_bits(model.bias), model.version, [(i, _bits(w)) for i, w in model.weights.items()])


def shard_fields(state) -> dict[str, object]:
    """A decoded shard state as plain values: every field, each float by its
    ``float.hex()`` and each vector as its ``(index, value)`` pairs in stored
    order."""
    return {
        "index": state.index,
        "strategy": state.strategy,
        "approach": state.approach,
        "records": [
            (entity_id, [(i, _bits(v)) for i, v in features.items()], _bits(eps), label)
            for entity_id, features, eps, label in state.records
        ],
        "current_model": _model_fields(state.current_model),
        "stored_model": _model_fields(state.stored_model),
        "row_hashes": [tuple(pair) for pair in state.row_hashes],
        "floats": [_bits(state.max_feature_norm), _bits(state.band_low), _bits(state.band_high)],
        "skiing": state.skiing,
    }


@pytest.fixture
def image(tmp_path) -> Path:
    """A private copy of the committed directories, the incremental manifest
    re-anchored to where its parent now lives (same keys, same frame)."""
    root = tmp_path / "image"
    shutil.copytree(DATA, root)
    manifest_path = root / "incremental" / MANIFEST_NAME
    manifest = read_json_frame(manifest_path)
    manifest["parent"] = str(root / "full")
    manifest["shard_sources"] = [
        source and str(root / "full" / Path(source).name) for source in manifest["shard_sources"]
    ]
    write_json_frame(manifest_path, manifest)
    return root


@pytest.fixture(scope="module")
def recorded() -> dict[str, object]:
    return json.loads((DATA / "answers.json").read_text())


def normalized(value):
    return json.loads(json.dumps(value))


def test_the_committed_image_is_what_the_docstring_says(image, recorded):
    full = load_checkpoint(image / "full")
    incremental = load_checkpoint(image / "incremental")
    assert recorded["before_full"]["info"]["shards_written"] == 2
    assert recorded["before_incremental"]["info"]["shards_written"] == 1
    assert full.manifest.shard_sources is None
    assert sum(source is not None for source in incremental.manifest.shard_sources) == 1
    assert incremental.manifest.wal_applied_seq > full.manifest.wal_applied_seq > 0
    for checkpoint in (full, incremental):
        assert len(checkpoint.shard_states) == 2
        assert all(state.row_hashes for state in checkpoint.shard_states)
        assert checkpoint.feature_function is not None


def test_the_committed_image_is_byte_for_byte_unchanged():
    digests = {
        str(path.relative_to(DATA)): hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
        for path in sorted(DATA.rglob("*"))
        if path.is_file()
    }
    assert digests == IMAGE_DIGESTS


def test_a_parent_written_full_checkpoint_restores_to_its_recorded_answers(image, recorded):
    engine = engine_over(corpus(), "before_full")
    engine.database.execute(f"RESTORE VIEW Labeled_Papers FROM '{image / 'full'}'")
    server = engine.view("Labeled_Papers").server
    try:
        expected = recorded["before_full"]
        assert server.epoch == expected["info"]["epoch"]
        assert normalized(answers(server)) == {k: expected[k] for k in ("contents", "top_k")}
    finally:
        server.close()


def test_a_parent_written_incremental_checkpoint_and_wal_restore_to_the_final_answers(
    image, recorded
):
    engine = engine_over(corpus(), "before_full", "before_incremental", "after_incremental")
    engine.database.execute(
        f"RESTORE VIEW Labeled_Papers FROM '{image / 'incremental'}' "
        f"WITH (wal = '{image / 'wal'}')"
    )
    server = engine.view("Labeled_Papers").server
    try:
        expected = recorded["after_incremental"]
        assert normalized(answers(server)) == {k: expected[k] for k in ("contents", "top_k")}
    finally:
        server.close()


def version_2_copy(source: Path, target: Path) -> Path:
    """``source`` (a version-1 checkpoint) with every frame re-written at
    version 2: its documents are what version 2 writes (a version-1 manifest
    is the all-inline case of version 2's examples), so this is the shape a
    checkpoint written at version 2 has."""
    shutil.copytree(source, target)
    manifest = read_json_frame(target / MANIFEST_NAME)
    for index, name in enumerate(manifest["shard_files"]):
        write_json_frame(target / name, read_json_frame(target / name), version=2)
        manifest["shard_shas"][index] = shard_file_sha(target / name)
    write_json_frame(target / MANIFEST_NAME, manifest, version=2)
    return target


def test_a_version_3_incremental_carries_a_version_2_parent_shard(tmp_path, image, recorded):
    """A server restored from a version-2 full checkpoint writes a version-3
    incremental that rewrites the one shard the new paper lands in and
    references the other, still a version-2 JSON shard file; that chain
    restores to the answers the live server gave at the same cut."""
    parent = version_2_copy(image / "full", tmp_path / "v2-full")
    child = tmp_path / "v3-incremental"
    engine = engine_over(corpus(), "before_full", "before_incremental")
    engine.database.execute(f"RESTORE VIEW Labeled_Papers FROM '{parent}'")
    server = engine.view("Labeled_Papers").server
    try:
        info = engine.database.execute(
            f"CHECKPOINT VIEW Labeled_Papers TO '{child}' "
            f"WITH (incremental = true, parent = '{parent}')"
        ).rows[0]
    finally:
        server.close()
    assert info["shards_written"] == 1
    manifest = read_json_frame(child / MANIFEST_NAME)
    versions = [
        frame_version(Path(source or child / name).read_bytes())
        for source, name in zip(manifest["shard_sources"], manifest["shard_files"])
    ]
    assert sorted(versions) == [2, 3]
    fresh = engine_over(corpus(), "before_full", "before_incremental")
    fresh.database.execute(f"RESTORE VIEW Labeled_Papers FROM '{child}'")
    restored = fresh.view("Labeled_Papers").server
    try:
        expected = recorded["before_incremental"]
        assert normalized(answers(restored)) == {k: expected[k] for k in ("contents", "top_k")}
    finally:
        restored.close()


@pytest.mark.parametrize(
    "malform",
    [
        pytest.param(lambda definition: definition.update(bogus=1), id="unknown key"),
        pytest.param(lambda definition: definition.pop("feature_function"), id="missing key"),
        pytest.param(lambda definition: definition.update(method=5), id="method not a name"),
    ],
)
def test_a_malformed_view_definition_is_a_corrupt_snapshot(image, malform):
    manifest_path = image / "full" / MANIFEST_NAME
    manifest = read_json_frame(manifest_path)
    malform(manifest["definition"])
    write_json_frame(manifest_path, manifest)  # a fresh CRC: only the content is wrong
    engine = engine_over(corpus(), "before_full")
    with pytest.raises(SnapshotCorruptionError, match="malformed view definition"):
        engine.database.execute(f"RESTORE VIEW Labeled_Papers FROM '{image / 'full'}'")
    assert not engine.views


@pytest.mark.parametrize(
    "malform",
    [
        pytest.param(lambda manifest: manifest.update(epoch="x"), id="epoch not a number"),
        pytest.param(lambda manifest: manifest.pop("model"), id="missing model"),
        pytest.param(lambda manifest: manifest.update(trainer_steps=None), id="null steps"),
    ],
)
def test_a_malformed_manifest_field_is_a_corrupt_snapshot(image, malform):
    """A CRC-valid manifest whose fields do not decode names the checkpoint in
    a :class:`SnapshotCorruptionError`, never a raw builtin."""
    manifest_path = image / "full" / MANIFEST_NAME
    manifest = read_json_frame(manifest_path)
    malform(manifest)
    write_json_frame(manifest_path, manifest)
    engine = engine_over(corpus(), "before_full")
    with pytest.raises(SnapshotCorruptionError, match="malformed field") as raised:
        engine.database.execute(f"RESTORE VIEW Labeled_Papers FROM '{image / 'full'}'")
    assert str(image / "full") in str(raised.value)
    assert not engine.views


def retrain_input(examples) -> list[tuple]:
    """Retained examples in stored order, each vector as its ``(index,
    value)`` pairs with the values' bits."""
    return [
        (example.entity_id, example.label, [(i, v.hex()) for i, v in example.features.items()])
        for example in examples
    ]


def test_the_same_program_writes_the_same_documents(tmp_path, image, recorded):
    """Key for key — and, but for the directory names and the four moves the
    module docstring lists, value for value."""
    fresh = tmp_path / "fresh"
    assert normalized(run_program(fresh)) == recorded
    before, after = documents(DATA), documents(fresh)
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for key in before[name].keys() - {*PATH_KEYS, "examples", "shard_shas"}:
            expected = before[name][key]
            if key == "definition":
                expected = without_options(expected)
            assert expected == after[name][key], (name, key)
    for name in ("full", "incremental"):
        loaded = [load_checkpoint(root / name) for root in (fresh, image)]
        assert [shard_fields(state) for state in loaded[0].shard_states] == [
            shard_fields(state) for state in loaded[1].shard_states
        ], name
        resolved = [checkpoint.published.examples for checkpoint in loaded]
        assert retrain_input(resolved[0]) == retrain_input(resolved[1]), name
    for name in ("full", "incremental"):
        assert read_frame(fresh / name / "features.hzs") == read_frame(DATA / name / "features.hzs")
    sources = after[f"incremental/{MANIFEST_NAME}"]["shard_sources"]
    assert [source and Path(source).parent for source in sources] == [
        source and (fresh / "full").resolve()
        for source in before[f"incremental/{MANIFEST_NAME}"]["shard_sources"]
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    if DATA.exists():
        shutil.rmtree(DATA)
    DATA.mkdir()
    (DATA / "answers.json").write_text(json.dumps(run_program(DATA), indent=1) + "\n")
    print(f"recorded {sorted(path.name for path in DATA.iterdir())} under {DATA}")
