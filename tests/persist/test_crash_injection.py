"""Crash-injection suite: checkpoint + WAL must recover the pre-crash answers.

Each test builds the crash shape the durability design must survive, then
proves recovery lands **bit-identical** to an uncrashed reference — not just
"no exception".  A crash is simulated by capturing the on-disk state (the
checkpoint directory plus the WAL directory) at the kill point; whatever the
in-memory pipeline held is deliberately thrown away.
"""

from __future__ import annotations

import shutil
import threading

import pytest

from repro import HazyEngine
from repro.core.writes import ViewWriter
from repro.exceptions import MaintenanceError, SnapshotCorruptionError
from repro.persist import load_checkpoint
from repro.persist.wal import SEGMENT_SUFFIX
from repro.serve.requests import WriteKind

from tests.persist.test_checkpoint_restore import DDL, build_engine_database
from tests.serve.conftest import build_corpus_server, copy_base_tables, restore_directly


def answers(server):
    return server.contents(), server.top_k(50), server.top_k(50, label=-1)


class TestCorpusCrashes:
    """Recovery by hand: ``ViewServer.restore`` over the base tables as of the
    checkpoint, then :meth:`~repro.serve.server.ViewServer.replay_wal`."""

    def _serve_checkpoint_then_write(self, corpus, tmp_path):
        """Common prologue: serve with a WAL, checkpoint, then keep writing.

        Returns the server, its WAL directory, the checkpoint and a copy of
        the base tables as of the checkpoint (the WAL holds the rest)."""
        wal_dir = tmp_path / "wal"
        server = build_corpus_server(corpus, wal=wal_dir)
        session = server.session()
        for doc in corpus[:20]:
            session.insert_example(doc.entity_id, doc.label)
        server.flush()
        server.checkpoint(tmp_path / "ckpt")
        tables = copy_base_tables(server._view.database)
        for doc in corpus[20:30]:
            session.insert_example(doc.entity_id, doc.label)
        server.flush()
        return server, wal_dir, tmp_path / "ckpt", tables

    def test_kill_between_wal_append_and_enqueue(self, corpus, tmp_path):
        """An op the WAL holds but the queue never saw is applied on recovery.

        The uncrashed twin restores from the same checkpoint with the same
        WAL *minus* the dangling record and then applies the op through the
        normal write path — recovery must land on the same answers, margin
        for margin (same SGD step order, same model bits).
        """
        server, wal_dir, ckpt, tables = self._serve_checkpoint_then_write(corpus, tmp_path)
        twin_wal = tmp_path / "wal-twin"
        shutil.copytree(wal_dir, twin_wal)

        extra = corpus[30]
        # The crash point: _enqueue_logged appended, then died before enqueue.
        server.wal.append(
            WriteKind.EXAMPLE_INSERT.value,
            {"id": extra.entity_id, "label": extra.label},
            None,
        )
        server.close()  # cleanup only; the disk state above is what recovery sees

        recovered = restore_directly(tables, ckpt, wal=wal_dir)
        try:
            assert recovered.replay_wal() == 11  # 10 queued post-ckpt + the dangler
            recovered_answers = answers(recovered)
        finally:
            recovered.close()

        twin = restore_directly(tables, ckpt, wal=twin_wal)
        try:
            assert twin.replay_wal() == 10
            twin.insert_example(extra.entity_id, extra.label)
            twin.flush()
            assert recovered_answers == answers(twin)
        finally:
            twin.close()

    def test_kill_between_shard_writes_and_manifest(self, corpus, tmp_path, monkeypatch):
        """A checkpoint that dies before its manifest rename never happened.

        The orphaned shard files are inert (no manifest, no checkpoint), and
        because the WAL prunes only *after* the manifest commit, recovery
        from the previous checkpoint still has every record it needs.
        """
        server, wal_dir, ckpt, tables = self._serve_checkpoint_then_write(corpus, tmp_path)
        reference = answers(server)

        import repro.persist.checkpoint as server_module  # where the commit point lives

        def crash_before_manifest(directory, manifest):
            raise OSError("simulated crash before the manifest rename")

        monkeypatch.setattr(server_module, "write_manifest", crash_before_manifest)
        with pytest.raises(OSError, match="simulated crash"):
            server.checkpoint(tmp_path / "ckpt-2")
        server.close()

        # The torn checkpoint does not exist as far as recovery is concerned...
        with pytest.raises(SnapshotCorruptionError, match="missing"):
            load_checkpoint(tmp_path / "ckpt-2")
        # ...and the survivor plus the unpruned WAL reproduce the lost state.
        recovered = restore_directly(tables, ckpt, wal=wal_dir)
        try:
            recovered.replay_wal()
            assert answers(recovered) == reference
        finally:
            recovered.close()

    def test_torn_wal_tail_replays_to_last_complete_record(self, corpus, tmp_path):
        """A record torn mid-append is dropped; everything published survives.

        The torn op was never acknowledged complete (the append did not
        return), so losing it is correct — recovery must match the last
        published pre-crash state exactly.
        """
        server, wal_dir, ckpt, tables = self._serve_checkpoint_then_write(corpus, tmp_path)
        reference = answers(server)

        server.wal.append(
            WriteKind.EXAMPLE_INSERT.value,
            {"id": corpus[35].entity_id, "label": 1},
            None,
        )
        server.close()
        newest = sorted(wal_dir.glob(f"wal-*{SEGMENT_SUFFIX}"))[-1]
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) - 7])  # tear mid-record

        recovered = restore_directly(tables, ckpt, wal=wal_dir)
        try:
            recovered.replay_wal()
            assert answers(recovered) == reference
        finally:
            recovered.close()


class TestEngineCrashes:
    def test_engine_recovery_replays_wal_in_arrival_order(self, corpus, tmp_path):
        """End-to-end: SQL serve WITH (wal=...), DML churn, crash, SQL restore.

        The post-checkpoint churn mixes an entity INSERT, an in-place UPDATE,
        and a training-example INSERT — the WAL preserves their arrival
        order, which a base-table diff alone cannot, so the recovered model
        (and with it every margin) matches the pre-crash server bitwise.
        """
        wal_dir = tmp_path / "wal"
        engine = HazyEngine(
            build_engine_database(corpus),
            architecture="mainmemory",
            strategy="hazy",
            approach="eager",
        )
        db = engine.database
        db.execute(DDL)
        db.execute(f"SERVE VIEW Labeled_Papers WITH (wal = '{wal_dir}')")
        server = engine.view("Labeled_Papers").server
        assert server.wal is not None
        server.flush()
        server.checkpoint(tmp_path / "ckpt")

        churn = [
            ("INSERT INTO papers (id, title) VALUES (?, ?)", (900_001, corpus[7].text)),
            (
                "UPDATE papers SET title = ? WHERE id = ?",
                (corpus[8].text, corpus[40].entity_id),
            ),
            (
                "INSERT INTO example_papers (id, label) VALUES (?, ?)",
                (corpus[30].entity_id, "database"),
            ),
        ]
        for sql, params in churn:
            db.execute(sql, params)
        server.flush()
        reference = answers(server)
        server.close()  # cleanup only; ckpt + WAL on disk are the crash state

        # The base tables are durable: rebuild them with the same churn applied.
        restart_db = build_engine_database(corpus)
        for sql, params in churn:
            restart_db.execute(sql, params)
        restart = HazyEngine(
            restart_db, architecture="mainmemory", strategy="hazy", approach="eager"
        )
        restart_db.execute(
            f"RESTORE VIEW Labeled_Papers FROM '{tmp_path / 'ckpt'}' WITH (wal = '{wal_dir}')"
        )
        restored = restart.view("Labeled_Papers").server
        try:
            assert restored.wal is not None
            assert answers(restored) == reference
        finally:
            restored.close()

    def test_an_orphan_example_row_blocks_neither_its_batch_nor_recovery(
        self, corpus, tmp_path
    ):
        """A write that cannot apply fails its own ticket — before and after a crash.

        The examples table has no foreign key, so plain SQL accepts a row for
        an entity that does not exist.  Served, that row is WAL-logged and
        acknowledged like its neighbours; it must not take them down with it
        when they share a maintenance batch, and replaying the log after a
        crash (where it is batched with them again) must not make
        ``RESTORE VIEW`` raise for as long as the row exists.
        """
        wal_dir = tmp_path / "wal"
        engine = HazyEngine(build_engine_database(corpus))
        db = engine.database
        db.execute(DDL)
        db.execute(f"SERVE VIEW Labeled_Papers WITH (shards = 2, wal = '{wal_dir}')")
        server = engine.view("Labeled_Papers").server
        db.execute(f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'ckpt'}'")
        retained = len(server.writer.examples)

        churn = [
            (corpus[30].entity_id, "database"),
            (corpus[31].entity_id, "other"),
            (4242, "database"),  # no such paper
            (corpus[32].entity_id, "database"),
            (corpus[33].entity_id, "other"),
        ]
        tickets = []
        for row in churn:
            db.execute("INSERT INTO example_papers (id, label) VALUES (?, ?)", row)
            tickets.append(server.take_session_ticket())
        server.flush()
        for row, ticket in zip(churn, tickets):
            if row[0] == 4242:
                with pytest.raises(MaintenanceError, match="unknown entity 4242"):
                    ticket.wait(10)
            else:
                ticket.wait(10)
        assert len(server.writer.examples) == retained + 4
        assert server.trainer.model.version == retained + 4
        reference = answers(server)
        server.close()  # cleanup only; ckpt + WAL on disk are the crash state

        restart_db = build_engine_database(corpus)
        restart_db.executemany("INSERT INTO example_papers (id, label) VALUES (?, ?)", churn)
        restart = HazyEngine(restart_db)
        restart_db.execute(
            f"RESTORE VIEW Labeled_Papers FROM '{tmp_path / 'ckpt'}' WITH (wal = '{wal_dir}')"
        )
        restored = restart.view("Labeled_Papers").server
        try:
            assert answers(restored) == reference
            assert len(restored.writer.examples) == retained + 4
            assert restored.trainer.model.version == retained + 4
        finally:
            restored.close()


TFIDF_DDL = DDL.replace("tf_bag_of_words", "tf_idf_bag_of_words")


@pytest.fixture
def hold_after_prepare(monkeypatch):
    """Park the maintenance worker between the two phases of a batch.

    ``ViewWriter.prepare`` is wrapped so the first batch that carries entity
    churn stops *after* phase 1 returned (the row is featurized, the corpus
    statistics have moved, the base table holds the new row) and *before*
    phase 2 begins (nothing is applied, nothing is published).  Returns
    ``(parked, release)``: wait for the first, set the second.
    """
    parked, release = threading.Event(), threading.Event()
    original = ViewWriter.prepare

    def prepare(self, writes, features_of, charge_featurize):
        prepared = original(self, writes, features_of, charge_featurize)
        if prepared.entity_ops and threading.current_thread().name == "hazy-maintenance":
            parked.set()
            assert release.wait(timeout=30)
        return prepared

    monkeypatch.setattr(ViewWriter, "prepare", prepare)
    yield parked, release
    release.set()


class TestCheckpointBehindItsOwnCut:
    """``checkpoint()`` reads nothing but what the server last *published*.

    Both tests take a checkpoint while a batch is parked between its phases;
    at the parent the checkpoint reached behind the cut it had just taken —
    for the feature function (statistics ahead of the epoch) and for the base
    table (row hashes ahead of the features).
    """

    def _serve(self, docs, ddl, tmp_path, wal: bool):
        engine = HazyEngine(build_engine_database(docs))
        db = engine.database
        db.execute(ddl)
        with_wal = f", wal = '{tmp_path / 'wal'}'" if wal else ""
        db.execute(f"SERVE VIEW Labeled_Papers WITH (shards = 2{with_wal})")
        return engine, engine.view("Labeled_Papers").server

    def _restore(self, db, tmp_path, wal: bool):
        engine = HazyEngine(db)
        with_wal = f" WITH (wal = '{tmp_path / 'crash-wal'}')" if wal else ""
        db.execute(f"RESTORE VIEW Labeled_Papers FROM '{tmp_path / 'crash-ckpt'}'{with_wal}")
        return engine.view("Labeled_Papers").server

    def _crash_image(self, db, tmp_path, wal: bool) -> None:
        """Checkpoint now, and keep what the disk holds at this instant."""
        db.execute(f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'ckpt'}'")
        shutil.copytree(tmp_path / "ckpt", tmp_path / "crash-ckpt")
        if wal:
            shutil.copytree(tmp_path / "wal", tmp_path / "crash-wal")

    def test_statistics_are_those_of_the_snapshotted_epoch(
        self, corpus, tmp_path, hold_after_prepare
    ):
        """Defect A: a row featurized but not yet published was in the pickled
        statistics *and* in the WAL, so recovery counted it twice."""
        parked, release = hold_after_prepare
        docs = corpus[:40]
        new_paper = (100, "database query brandnewtoken")
        engine, server = self._serve(docs, TFIDF_DDL, tmp_path, wal=True)
        db = engine.database
        epoch = server.epoch

        db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", new_paper)
        assert parked.wait(timeout=10)
        self._crash_image(db, tmp_path, wal=True)
        snapshot = load_checkpoint(tmp_path / "crash-ckpt")
        assert snapshot.manifest.epoch == epoch and 100 not in snapshot.published.row_hashes
        release.set()
        server.flush()
        live = server.writer.feature_function
        live_vector = dict(server.shards.stored_features(100).items())
        reference = answers(server)
        server.close()

        restart_db = build_engine_database(docs)
        restart_db.execute("INSERT INTO papers (id, title) VALUES (?, ?)", new_paper)
        restored = self._restore(restart_db, tmp_path, wal=True)
        try:
            recovered = restored.writer.feature_function
            assert recovered.document_count == live.document_count == len(docs) + 1
            assert snapshot.feature_function.document_count == len(docs)
            assert recovered.document_frequency == live.document_frequency
            assert recovered.vocabulary.tokens() == live.vocabulary.tokens()
            assert dict(restored.shards.stored_features(100).items()) == live_vector
            assert answers(restored) == reference
        finally:
            restored.close()

    @pytest.mark.parametrize("wal", [False, True], ids=["no-wal", "wal"])
    def test_row_hashes_describe_the_rows_the_snapshot_featurized(
        self, corpus, tmp_path, hold_after_prepare, wal
    ):
        """Defect B: the snapshot stored an entity's *old* features next to the
        hash of its *new* row, so a restore without a WAL saw "hash matches"
        and kept the stale vector forever.  (With a WAL the replayed UPDATE
        hid it: pinned.)"""
        parked, release = hold_after_prepare
        docs = corpus[:40]
        target = docs[5]
        update = ("UPDATE papers SET title = ? WHERE id = ?", (docs[6].text, target.entity_id))
        engine, server = self._serve(docs, DDL, tmp_path, wal=wal)
        db = engine.database
        old_vector = dict(server.shards.stored_features(target.entity_id).items())

        db.execute(*update)
        assert parked.wait(timeout=10)
        self._crash_image(db, tmp_path, wal=wal)
        release.set()
        server.flush()
        new_vector = dict(server.shards.stored_features(target.entity_id).items())
        assert new_vector != old_vector
        reference = answers(server)
        server.close()

        restart_db = build_engine_database(docs)
        restart_db.execute(*update)  # the base table as the crash left it
        restored = self._restore(restart_db, tmp_path, wal=wal)
        try:
            assert dict(restored.shards.stored_features(target.entity_id).items()) == new_vector
            assert answers(restored) == reference
        finally:
            restored.close()

    def test_a_checkpoint_does_not_scan_the_entities_table(self, corpus, tmp_path, monkeypatch):
        engine, server = self._serve(corpus[:40], DDL, tmp_path, wal=False)
        table = engine.database.table("papers")
        scans = []
        original = table.scan
        monkeypatch.setattr(table, "scan", lambda *a, **k: scans.append(1) or original(*a, **k))
        try:
            engine.database.execute(f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'ckpt'}'")
            assert not scans
        finally:
            server.close()
