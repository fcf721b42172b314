"""A checkpoint writes each retained example's vector once, and restores its sharing.

An example's features are a shared value: usually the very vector its
entity's stored record holds, and, after the entity is UPDATEd, one old
vector all its earlier examples hold.  The manifest writes such an example
by reference — ``null`` for its record's vector, an earlier example's index
for a shared one — and :func:`~repro.persist.load_checkpoint` resolves the
references, so the restored examples hold the restored records' vectors and
share what they shared before the crash.
"""

from __future__ import annotations

import json
from collections import defaultdict

from repro.persist import MANIFEST_NAME
from repro.persist.format import read_json_frame
from repro.persist.snapshot import encode_vector
from repro.workloads.synth_text import SparseCorpusGenerator

from tests.persist.test_checkpoint_format import retrain_input
from tests.serve.conftest import build_corpus_server, restore_by_sql


def records_of(server) -> dict[object, object]:
    """Entity id -> the vector object its stored record holds, on every shard."""
    return {
        record.entity_id: record.features
        for shard in server.shards.shards
        for record in shard.maintainer.store.scan_all()
    }


def sharing(examples) -> list[list[int]]:
    """The positions of the examples, grouped by the vector object they hold."""
    groups: dict[int, list[int]] = defaultdict(list)
    for position, example in enumerate(examples):
        groups[id(example.features)].append(position)
    return sorted(groups.values())


def served_history(corpus):
    """A served view whose examples hold all three kinds of vector: their
    record's, one old vector shared by two examples of an entity UPDATEd
    since, and a vector no record holds any longer."""
    server = build_corpus_server(corpus)
    moved = corpus[0].entity_id
    for _ in range(2):
        server.insert_example(moved, corpus[0].label)
    server.flush()
    new_features = json.dumps(encode_vector(corpus[1].features))
    server._view.database.execute(
        "UPDATE entities SET features = ? WHERE id = ?", (new_features, moved)
    )
    server.flush()
    server.insert_example(moved, corpus[0].label)
    server.flush()
    return server


def examples_document(directory) -> list[list]:
    return read_json_frame(directory / MANIFEST_NAME)["examples"]


def test_a_restored_example_holds_its_records_vector_and_shared_vectors_stay_shared(
    corpus, tmp_path
):
    server = served_history(corpus)
    try:
        live, live_records = list(server.writer.examples), records_of(server)
        server.checkpoint(tmp_path / "full")
    finally:
        server.close()
    by_record = [live_records.get(example.entity_id) is example.features for example in live]
    assert any(by_record) and not all(by_record)
    assert any(len(group) > 1 and not by_record[group[0]] for group in sharing(live))

    restored = restore_by_sql(server._view.database, tmp_path / "full")
    try:
        examples, records = list(restored.writer.examples), records_of(restored)
    finally:
        restored.close()
    assert retrain_input(examples) == retrain_input(live)
    assert sharing(examples) == sharing(live)
    for example, is_record in zip(examples, by_record):
        assert (records.get(example.entity_id) is example.features) == is_record


def test_examples_naming_unchanged_entities_cost_a_few_bytes_each(tmp_path):
    corpus = SparseCorpusGenerator(
        vocabulary_size=400, nonzeros_per_document=40, positive_fraction=0.4, seed=13
    ).generate_list(200)
    server = build_corpus_server(corpus)
    try:
        server.flush()
        server.checkpoint(tmp_path / "full")
    finally:
        server.close()
    document = examples_document(tmp_path / "full")
    encoded = json.dumps(document, separators=(",", ":"))
    assert len(document) == 60
    assert len(encoded) <= 24 * len(document), len(encoded) / len(document)


def test_a_checkpoint_after_a_restore_writes_the_same_examples(corpus, tmp_path):
    server = served_history(corpus)
    try:
        server.checkpoint(tmp_path / "before")
    finally:
        server.close()
    document = examples_document(tmp_path / "before")
    slots = {type(slot) for _, slot, _ in document}
    assert slots == {type(None), int, dict}, "the history should write every kind of slot"

    restored = restore_by_sql(server._view.database, tmp_path / "before")
    try:
        restored.checkpoint(tmp_path / "after")
    finally:
        restored.close()
    assert examples_document(tmp_path / "after") == document
