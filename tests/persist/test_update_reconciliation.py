"""Regression: a content-only UPDATE between checkpoint and restore must be seen.

The warm-restart replay used to diff the base tables against the snapshot by
*key only*: an entity UPDATEd in place while the view was down kept its stale
snapshot features forever.  Checkpoints now store a content hash per row, and
replay re-featurizes any entity whose base-table row no longer matches —
restoring must land bit-identical to a cold rebuild over the updated tables.
"""

from __future__ import annotations

from repro import HazyEngine
from repro.linalg import SparseVector
from repro.persist import load_checkpoint
from repro.persist.snapshot import row_content_hash

from tests.persist.test_checkpoint_restore import DDL, build_engine_database


def _engine_over(db) -> HazyEngine:
    return HazyEngine(db, architecture="mainmemory", strategy="hazy", approach="eager")


def _swapped_title(corpus, target) -> str:
    """The target's title with one token swapped for an equal-length one.

    Both the removed and the inserted token first occur in *earlier*
    documents, so the vocabulary's first-occurrence index assignment is
    identical whether the corpus is scanned with the old or the new title —
    which is what makes bit-identical float comparisons against a cold
    rebuild meaningful.  Equal string length keeps the in-place page update
    from overflowing.
    """
    first_seen: dict[str, int] = {}
    target_index = None
    for index, doc in enumerate(corpus):
        if doc.entity_id == target.entity_id:
            target_index = index
        for token in doc.text.split():
            first_seen.setdefault(token, index)
    tokens = target.text.split()
    for position, old in enumerate(tokens):
        if first_seen[old] >= target_index:
            continue
        for new in first_seen:
            if new != old and len(new) == len(old) and first_seen[new] < target_index:
                swapped = list(tokens)
                swapped[position] = new
                return " ".join(swapped)
    raise AssertionError("corpus offers no vocabulary-stable token swap")


def _checkpoint_and_update(corpus, tmp_path):
    """Serve cold, checkpoint, and return the in-place title UPDATE applied
    while the view is 'down' (SQL + params), targeting a non-example entity
    the view currently labels positive (so its margin shows up in ``top_k``)."""
    engine = _engine_over(build_engine_database(corpus))
    engine.database.execute(DDL)
    server = engine.serve("Labeled_Papers")
    server.flush()
    before_top = dict(server.top_k(len(corpus)))
    server.checkpoint(tmp_path / "ckpt")
    server.close()

    example_ids = {doc.entity_id for doc in corpus[:25]}
    target = next(
        doc
        for doc in corpus[25:]
        if doc.entity_id in before_top and doc.entity_id not in example_ids
    )
    new_title = _swapped_title(corpus, target)
    update = ("UPDATE papers SET title = ? WHERE id = ?", (new_title, target.entity_id))
    return target.entity_id, update, before_top


def _cold_reference(corpus, update):
    """A cold CREATE over base tables that already hold the UPDATE."""
    db = build_engine_database(corpus)
    db.execute(*update)
    engine = _engine_over(db)
    db.execute(DDL)
    server = engine.serve("Labeled_Papers")
    server.flush()
    return server


def test_updated_row_is_refeaturized_on_restore(corpus, tmp_path):
    target_id, update, before_top = _checkpoint_and_update(corpus, tmp_path)

    restart_db = build_engine_database(corpus)
    restart_db.execute(*update)
    restart = _engine_over(restart_db)
    restored = restart.restore("Labeled_Papers", tmp_path / "ckpt")
    try:
        restored_contents = restored.contents()
        restored_top = restored.top_k(len(corpus))
    finally:
        restored.close()

    cold = _cold_reference(corpus, update)
    try:
        assert restored_contents == cold.contents()
        assert restored_top == cold.top_k(len(corpus))
        # ...and the comparison is not vacuous: the UPDATE moved the margin.
        cold_margins = dict(cold.top_k(len(corpus)) + cold.top_k(len(corpus), label=-1))
        assert cold_margins[target_id] != before_top[target_id]
    finally:
        cold.close()


def test_untouched_restore_stays_bit_identical(corpus, tmp_path):
    """Hash bookkeeping must not perturb the no-churn restore path."""
    engine = _engine_over(build_engine_database(corpus))
    engine.database.execute(DDL)
    server = engine.serve("Labeled_Papers")
    server.flush()
    before_contents = server.contents()
    before_top = server.top_k(len(corpus))
    server.checkpoint(tmp_path / "ckpt")
    server.close()

    restart = _engine_over(build_engine_database(corpus))
    restored = restart.restore("Labeled_Papers", tmp_path / "ckpt")
    try:
        assert restored.contents() == before_contents
        assert restored.top_k(len(corpus)) == before_top
        # No churn, no replay: the restore resumes at the snapshot epoch.
        assert restored.epoch == load_checkpoint(tmp_path / "ckpt").manifest.epoch
    finally:
        restored.close()


def test_a_vector_column_hashes_every_entry():
    """Two rows that differ only in a vector's 7th entry hash apart.

    A vector's ``repr`` shows its first six entries, so a hash over it could
    not see an in-place UPDATE past them; the hash covers every pair.
    """
    entries = {index: float(index + 1) for index in range(8)}
    changed = {**entries, 6: 99.0}
    assert repr(SparseVector(entries)) == repr(SparseVector(changed))
    before = row_content_hash({"id": 1, "features": SparseVector(entries)})
    after = row_content_hash({"id": 1, "features": SparseVector(changed)})
    assert before != after
    # A row without a vector hashes as it always has: its canonical JSON.
    assert row_content_hash({"id": 1, "title": "a"}) == "999d93b8a365e506"
