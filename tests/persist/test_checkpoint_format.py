"""The on-disk checkpoint format did not move.

``tests/persist/data/`` holds what one fixed program left on disk when it ran
on the commit *before* a served view got one published state (ISSUE 23's
parent, 9ba4c24): a full checkpoint, an incremental one that rewrites one of
its two shards and references the other, the write-ahead log as the crash
left it, and the answers the live server gave at the two cuts.  The tests
here restore those directories with the code as it is now and require the
recorded answers, then run the same program again and require documents with
the same keys — and, the program being deterministic, the same values — but
for three fields that moved on purpose:

* the manifest's view definition has lost its never-filled ``options`` field
  (:func:`without_options`);
* the retained examples are written by reference since format version 2, so
  the two ``examples`` documents differ, and must resolve through
  :func:`load_checkpoint` to the same examples (:func:`retrain_input`);
* a shard digest covers the frame header, which now carries version 2, so
  ``shard_shas`` must name the recorded shard payload under that header
  (:func:`reframed_digests`).

Regenerate (only when the format is *meant* to move, from a checkout of the
commit whose format is the reference) with
``PYTHONPATH=<that checkout>/src python tests/persist/test_checkpoint_format.py --record``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from repro import HazyEngine
from repro.exceptions import SnapshotCorruptionError
from repro.persist import MANIFEST_NAME, load_checkpoint
from repro.persist.checkpoint import shard_sha
from repro.persist.format import (
    decode_frame,
    encode_frame,
    read_frame,
    read_json_frame,
    write_json_frame,
)
from repro.workloads.synth_text import SparseCorpusGenerator

from tests.persist.test_checkpoint_restore import DDL, build_engine_database

DATA = Path(__file__).with_name("data")

#: Values that name a directory: an incremental manifest references its
#: parent's shard files by absolute path.
PATH_KEYS = ("shard_sources", "parent")


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
    """Every JSON document of the two checkpoints, by relative file name."""
    return {
        str(path.relative_to(root)): read_json_frame(path)
        for name in ("full", "incremental")
        for path in sorted((root / name).glob("*.hzs"))
        if path.name != "features.hzs"
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


def reframed_digests() -> dict[str, str]:
    """Each recorded shard file's digest -> the digest of its payload framed today."""
    return {
        shard_sha(raw): shard_sha(encode_frame(decode_frame(raw, path)))
        for path in sorted(DATA.glob("*/shard-*.hzs"))
        for raw in [path.read_bytes()]
    }


def test_the_same_program_writes_the_same_documents(tmp_path, image, recorded):
    """Key for key — and, but for the directory names and the three moves the
    module docstring lists, value for value."""
    fresh = tmp_path / "fresh"
    assert normalized(run_program(fresh)) == recorded
    before, after = documents(DATA), documents(fresh)
    reframed = reframed_digests()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for key in before[name].keys() - {*PATH_KEYS, "examples"}:
            expected = before[name][key]
            if name.endswith(MANIFEST_NAME) and key == "definition":
                expected = without_options(expected)
            if key == "shard_shas":
                expected = [reframed[digest] for digest in expected]
            assert expected == after[name][key], (name, key)
    for name in ("full", "incremental"):
        resolved = [load_checkpoint(root / name).published.examples for root in (fresh, image)]
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
