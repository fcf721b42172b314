"""Incremental checkpoints: dirty-shard tracking, parent chains, validation."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import HazyEngine
from repro.exceptions import ConfigurationError, SnapshotCorruptionError
from repro.linalg import SparseVector
from repro.persist import load_checkpoint
from repro.persist.format import read_frame, write_frame

from tests.persist.test_checkpoint_format import retrain_input
from tests.persist.test_checkpoint_restore import build_engine_database, cold_engine
from tests.persist.test_example_references import records_of
from tests.serve.conftest import (
    build_corpus_server,
    entity_row,
    restore_by_sql,
    restore_directly,
    warm_sample,
)


class TestCorpusIncremental:
    def test_idle_view_rewrites_no_shard_payloads(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        server.flush()
        full = server.checkpoint(tmp_path / "full")
        assert full["shards_written"] == 4
        # Nothing moved since the parent: zero shards, zero shard bytes.
        info = server.checkpoint(tmp_path / "inc", incremental=True)
        assert info["shards_written"] == 0
        assert info["shard_bytes"] == 0
        assert info["entities"] == len(corpus)
        contents = server.contents()
        server.close()

        restored = restore_by_sql(server._view.database, tmp_path / "inc")
        try:
            assert restored.contents() == contents
        finally:
            restored.close()

    def test_entity_insert_dirties_only_its_shard(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        server.flush()
        server.checkpoint(tmp_path / "full")
        new_id = 999_001
        server.insert_entity(entity_row(new_id, SparseVector({3: 1.0})))
        server.flush()
        info = server.checkpoint(tmp_path / "inc", incremental=True)
        assert info["shards_written"] == 1
        assert info["entities"] == len(corpus) + 1
        contents = server.contents()
        server.close()

        restored = restore_by_sql(server._view.database, tmp_path / "inc")
        try:
            after = restored.contents()
            assert after == contents
            assert new_id in after
        finally:
            restored.close()

    def test_model_movement_dirties_every_shard(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        server.flush()
        server.checkpoint(tmp_path / "full")
        # A training example moves the model, and the model lives everywhere.
        server.insert_example(corpus[0].entity_id, corpus[0].label)
        server.flush()
        info = server.checkpoint(tmp_path / "inc", incremental=True)
        assert info["shards_written"] == 4
        server.close()

    def test_an_entity_updated_since_the_parent_keeps_its_old_vector_in_its_examples(
        self, corpus, tmp_path
    ):
        """The retrain input holds the vector each example was taken with: an
        entity UPDATEd between a parent and its incremental restores the old
        vector in its earlier examples, not its new record's."""
        server = build_corpus_server(corpus)
        moved = warm_sample(corpus)[0].entity_id
        server.flush()
        server.checkpoint(tmp_path / "full")
        new_row = entity_row(moved, SparseVector({3: 1.0}))
        server._view.database.execute(
            "UPDATE entities SET features = ? WHERE id = ?", (new_row["features"], moved)
        )
        server.flush()
        info = server.checkpoint(tmp_path / "inc", incremental=True)
        retained = retrain_input(server.writer.examples)
        server.close()
        assert info["shards_written"] == 1
        old = [features for entity_id, _, features in retained if entity_id == moved]
        assert old and [(3, (1.0).hex())] not in old

        restored = restore_by_sql(server._view.database, tmp_path / "inc")
        try:
            assert retrain_input(restored.writer.examples) == retained
            assert list(records_of(restored)[moved].items()) == [(3, 1.0)]
        finally:
            restored.close()

    def test_parent_chain_flattens_references(self, corpus, tmp_path):
        """C3 -> C2 -> C1: unchanged shards must reference real payload files
        directly (C1's), never chase another reference through C2."""
        server = build_corpus_server(corpus)
        server.flush()
        server.checkpoint(tmp_path / "c1")
        server.insert_entity(entity_row(999_001, SparseVector({3: 1.0})))
        server.flush()
        server.checkpoint(tmp_path / "c2", incremental=True)
        server.insert_entity(entity_row(999_002, SparseVector({5: 1.0})))
        server.flush()
        server.checkpoint(tmp_path / "c3", incremental=True, parent=tmp_path / "c2")
        contents = server.contents()
        server.close()

        manifest = load_checkpoint(tmp_path / "c3").manifest
        assert manifest.parent == str(tmp_path / "c2")
        sources = [source for source in manifest.shard_sources if source]
        assert sources, "an idle shard should have been referenced, not rewritten"
        for source in sources:
            # Flattened: a reference points at a real payload file in c1 or
            # c2, never at c3 itself and never through another reference.
            assert Path(source).parent in (tmp_path / "c1", tmp_path / "c2")
            assert Path(source).is_file()

        restored = restore_by_sql(server._view.database, tmp_path / "c3")
        try:
            after = restored.contents()
            assert after == contents
            assert {999_001, 999_002} <= set(after)
        finally:
            restored.close()

    def test_incremental_without_parent_is_an_error(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        try:
            server.flush()
            with pytest.raises(ConfigurationError, match="needs a parent"):
                server.checkpoint(tmp_path / "inc", incremental=True)
        finally:
            server.close()

    def test_incremental_rejects_itself_as_parent(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        try:
            server.flush()
            server.checkpoint(tmp_path / "ckpt")
            with pytest.raises(ConfigurationError, match="itself"):
                server.checkpoint(
                    tmp_path / "ckpt", incremental=True, parent=tmp_path / "ckpt"
                )
        finally:
            server.close()

    def test_parent_shard_count_mismatch_is_an_error(self, corpus, tmp_path):
        narrow = build_corpus_server(corpus, shards=2)
        narrow.flush()
        narrow.checkpoint(tmp_path / "narrow")
        narrow.close()

        server = build_corpus_server(corpus)
        try:
            server.flush()
            with pytest.raises(ConfigurationError, match="2 shards"):
                server.checkpoint(
                    tmp_path / "inc", incremental=True, parent=tmp_path / "narrow"
                )
        finally:
            server.close()


class TestReferenceIntegrity:
    def _chain(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        server.flush()
        server.checkpoint(tmp_path / "full")
        server.insert_entity(entity_row(999_001, SparseVector({3: 1.0})))
        server.flush()
        server.checkpoint(tmp_path / "inc", incremental=True)
        server.close()

    def _referenced_parent_file(self, tmp_path):
        manifest = load_checkpoint(tmp_path / "inc").manifest
        source = next(source for source in manifest.shard_sources if source)
        return Path(source)

    def test_missing_parent_shard_file_names_the_file(self, corpus, tmp_path):
        self._chain(corpus, tmp_path)
        victim = self._referenced_parent_file(tmp_path)
        victim.unlink()
        with pytest.raises(
            SnapshotCorruptionError, match="references parent shard file"
        ) as excinfo:
            load_checkpoint(tmp_path / "inc")
        assert victim.name in str(excinfo.value)

    def test_rewritten_parent_shard_fails_the_digest_check(self, corpus, tmp_path):
        self._chain(corpus, tmp_path)
        victim = self._referenced_parent_file(tmp_path)
        payload = read_frame(victim)
        write_frame(victim, payload + b" ")  # valid frame, different content
        with pytest.raises(SnapshotCorruptionError, match="content digest"):
            load_checkpoint(tmp_path / "inc")


class TestSQLSurface:
    def _served_engine(self, corpus):
        engine = cold_engine(corpus)
        engine.database.execute("SERVE VIEW Labeled_Papers")
        return engine, engine.view("Labeled_Papers").server

    def test_checkpoint_with_incremental_option(self, corpus, tmp_path):
        engine, server = self._served_engine(corpus)
        db = engine.database
        server.flush()
        db.execute(f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'full'}'")
        db.execute(
            "INSERT INTO papers (id, title) VALUES (900001, 'incremental churn row')"
        )
        server.flush()
        result = db.execute(
            f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'inc'}' "
            "WITH (incremental = true)"
        )
        row = result.rows[0]
        assert row["shards_written"] == 1
        assert row["epoch"] == server.epoch
        server.close()

    def test_checkpoint_with_explicit_parent(self, corpus, tmp_path):
        engine, server = self._served_engine(corpus)
        db = engine.database
        server.flush()
        db.execute(f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'full'}'")
        result = db.execute(
            f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'inc'}' "
            f"WITH (incremental = true, parent = '{tmp_path / 'full'}')"
        )
        assert result.rows[0]["shards_written"] == 0
        server.close()

    def test_checkpoint_option_validation(self, corpus, tmp_path):
        engine, server = self._served_engine(corpus)
        db = engine.database
        try:
            with pytest.raises(ConfigurationError, match="unknown checkpoint option"):
                db.execute(
                    f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'x'}' "
                    "WITH (bogus = true)"
                )
            with pytest.raises(ConfigurationError, match="requires incremental"):
                db.execute(
                    f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'x'}' "
                    f"WITH (parent = '{tmp_path / 'full'}')"
                )
            with pytest.raises(ConfigurationError, match="true or false"):
                db.execute(
                    f"CHECKPOINT VIEW Labeled_Papers TO '{tmp_path / 'x'}' "
                    "WITH (incremental = 3)"
                )
        finally:
            server.close()


class TestRestoreShardMismatch:
    def _engine_checkpoint(self, corpus, tmp_path):
        engine = cold_engine(corpus)
        server = engine.serve("Labeled_Papers")
        server.flush()
        server.checkpoint(tmp_path / "ckpt")
        server.close()
        return tmp_path / "ckpt"

    def test_sql_restore_rejects_mismatched_shards(self, corpus, tmp_path):
        ckpt = self._engine_checkpoint(corpus, tmp_path)
        restart_db = build_engine_database(corpus)
        restart = HazyEngine(
            restart_db, architecture="mainmemory", strategy="hazy", approach="eager"
        )
        with pytest.raises(ConfigurationError, match="cannot restore with shards=2"):
            restart_db.execute(
                f"RESTORE VIEW Labeled_Papers FROM '{ckpt}' WITH (shards = 2)"
            )
        # The failed restore left the engine clean: the retry (without the
        # conflicting option) succeeds.
        assert "labeled_papers" not in restart.views
        restored = restart.restore("Labeled_Papers", ckpt)
        try:
            assert len(restored.shards) == 4
        finally:
            restored.close()

    def test_imperative_restore_rejects_mismatched_shards(self, corpus, tmp_path):
        ckpt = self._engine_checkpoint(corpus, tmp_path)
        restart = HazyEngine(
            build_engine_database(corpus),
            architecture="mainmemory",
            strategy="hazy",
            approach="eager",
        )
        with pytest.raises(ConfigurationError, match="cannot restore with shards=2"):
            restart.restore("Labeled_Papers", ckpt, shards=2)

    def test_direct_restore_rejects_mismatched_shards(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        server.flush()
        server.checkpoint(tmp_path / "ckpt")
        server.close()
        with pytest.raises(ConfigurationError, match="cannot restore with shards=8"):
            restore_directly(server._view.database, tmp_path / "ckpt", shards=8)

    def test_matching_shard_count_is_accepted(self, corpus, tmp_path):
        ckpt = self._engine_checkpoint(corpus, tmp_path)
        restart_db = build_engine_database(corpus)
        restart = HazyEngine(
            restart_db, architecture="mainmemory", strategy="hazy", approach="eager"
        )
        restart_db.execute(
            f"RESTORE VIEW Labeled_Papers FROM '{ckpt}' WITH (shards = 4)"
        )
        restored = restart.view("Labeled_Papers").server
        try:
            assert len(restored.shards) == 4
        finally:
            restored.close()
