"""Checkpoint/recovery tests: a served corpus view, engine views, crash shapes."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro import Database, HazyEngine
from repro.exceptions import (
    ConfigurationError,
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotMismatchError,
    SnapshotVersionError,
    ViewDefinitionError,
)
from repro.linalg import SparseVector
from repro.persist import FORMAT_VERSION, MANIFEST_NAME, load_checkpoint
from repro.persist.format import read_frame, read_json_frame, write_frame, write_json_frame
from repro.workloads.synth_text import SparseCorpusGenerator

from tests.db.test_sql_plan import PreFeaturizedColumn
from tests.serve.conftest import (
    build_corpus_server,
    copy_base_tables,
    entity_row,
    restore_by_sql,
)


#: Events driving :class:`BlockingFeatures` (module-level so pickle can see the class).
_FEATURIZE_RELEASE = threading.Event()
_FEATURIZE_ENTERED = threading.Event()


class BlockingFeatures(PreFeaturizedColumn):
    """Featurization that parks the maintenance worker inside phase 1 on a
    row without features."""

    name = "blocking"

    def compute_feature(self, row):
        if row["features"] is not None:
            return super().compute_feature(row)
        _FEATURIZE_ENTERED.set()
        _FEATURIZE_RELEASE.wait(timeout=30)
        return SparseVector({0: 1.0})


@pytest.fixture
def corpus():
    generator = SparseCorpusGenerator(
        vocabulary_size=250, nonzeros_per_document=10, positive_fraction=0.4, seed=13
    )
    return generator.generate_list(200)


class TestCorpusServer:
    def test_round_trip_is_bit_identical(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        session = server.session()
        for doc in corpus[:30]:
            session.insert_example(doc.entity_id, doc.label)
        server.flush()
        before_contents = server.contents()
        before_top = server.top_k(20)
        before_epoch = server.epoch
        info = server.checkpoint(tmp_path / "ckpt")
        server.close()

        assert info["entities"] == len(corpus)
        restored = restore_by_sql(server._view.database, tmp_path / "ckpt")
        try:
            assert restored.epoch == before_epoch
            assert restored.contents() == before_contents
            assert restored.top_k(20) == before_top
        finally:
            restored.close()

    def test_restored_server_keeps_serving_writes(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        server.flush()
        server.checkpoint(tmp_path / "ckpt")
        server.close()

        restored = restore_by_sql(server._view.database, tmp_path / "ckpt")
        try:
            session = restored.session()
            for doc in corpus[:15]:
                session.insert_example(doc.entity_id, doc.label)
            assert session.label_of(corpus[0].entity_id) in (-1, 1)
            assert restored.epoch > 0
        finally:
            restored.close()

    def test_checkpoint_readers_stay_live(self, corpus, tmp_path):
        """Reads issued while a checkpoint is being written still complete."""
        server = build_corpus_server(corpus)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            index = 0
            while not stop.is_set():
                try:
                    server.label_of(corpus[index % len(corpus)].entity_id)
                except BaseException as error:  # pragma: no cover - failure path
                    errors.append(error)
                    return
                index += 1

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for round_index in range(3):
                server.checkpoint(tmp_path / f"ckpt-{round_index}")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            server.close()
        assert not errors

    def test_checkpoint_mid_maintenance_batch(self, corpus, tmp_path):
        """A checkpoint taken while a batch trains captures only the published epoch."""
        _FEATURIZE_RELEASE.clear()
        _FEATURIZE_ENTERED.clear()
        server = build_corpus_server(corpus, feature_function=BlockingFeatures)
        session = server.session()
        for doc in corpus[:10]:
            session.insert_example(doc.entity_id, doc.label)
        server.flush()
        published_contents = server.contents()
        published_epoch = server.epoch
        # The base tables as of the published epoch, for the restore below.
        published_tables = copy_base_tables(server._view.database)

        # This entity row blocks the worker inside phase 1 (no locks held) and
        # the example behind it queues up — neither may reach the snapshot.
        server.insert_entity({"id": 999_999, "features": None})
        assert _FEATURIZE_ENTERED.wait(timeout=10)
        server.insert_example(corpus[11].entity_id, corpus[11].label)
        try:
            server.checkpoint(tmp_path / "ckpt")
        finally:
            _FEATURIZE_RELEASE.set()
        server.flush()
        server.close()

        # Nothing to replay over those tables: the restore publishes no epoch.
        restored = restore_by_sql(published_tables, tmp_path / "ckpt")
        try:
            assert restored.epoch == published_epoch
            assert restored.contents() == published_contents
            assert 999_999 not in restored.contents()
        finally:
            restored.close()

    def test_a_feature_function_that_does_not_pickle_fails_the_checkpoint_not_the_serving(
        self, corpus, tmp_path
    ):
        """The statistics are pickled at each publish that featurized; what
        cannot be pickled is kept as the error and raised by ``checkpoint``."""

        class Unpicklable(PreFeaturizedColumn):  # a local class: pickle cannot find it
            name = "unpicklable"

        server = build_corpus_server(corpus, feature_function=Unpicklable)
        try:
            server.insert_entity(entity_row(999_999, SparseVector({0: 1.0}))).wait(10)
            assert server.label_of(999_999) in (-1, 1)
            with pytest.raises((pickle.PicklingError, AttributeError), match="Unpicklable"):
                server.checkpoint(tmp_path / "ckpt")
            assert not (tmp_path / "ckpt" / MANIFEST_NAME).exists()
        finally:
            server.close()


class TestCrashShapes:
    def _checkpoint(self, corpus, tmp_path):
        server = build_corpus_server(corpus)
        server.flush()
        server.checkpoint(tmp_path / "ckpt")
        server.close()
        return tmp_path / "ckpt"

    def test_truncated_shard_file(self, corpus, tmp_path):
        directory = self._checkpoint(corpus, tmp_path)
        shard_file = directory / "shard-0000.hzs"
        raw = shard_file.read_bytes()
        shard_file.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruptionError, match="truncated"):
            load_checkpoint(directory)

    def test_version_mismatch(self, corpus, tmp_path):
        directory = self._checkpoint(corpus, tmp_path)
        manifest = directory / MANIFEST_NAME
        payload = read_frame(manifest)
        write_frame(manifest, payload, version=FORMAT_VERSION + 7)
        with pytest.raises(SnapshotVersionError):
            load_checkpoint(directory)

    def test_missing_shard_file_names_the_file(self, corpus, tmp_path):
        """A manifest-listed shard file that vanished is a corruption error
        that says *which* file — not a bare FileNotFoundError."""
        directory = self._checkpoint(corpus, tmp_path)
        (directory / "shard-0002.hzs").unlink()
        with pytest.raises(SnapshotCorruptionError, match="lists shard file") as excinfo:
            load_checkpoint(directory)
        assert "shard-0002.hzs" in str(excinfo.value)

    def test_rewritten_shard_file_fails_the_digest_check(self, corpus, tmp_path):
        """A shard file rewritten after the manifest committed (valid frame,
        different content) fails the manifest's content digest."""
        directory = self._checkpoint(corpus, tmp_path)
        shard_file = directory / "shard-0001.hzs"
        payload = read_frame(shard_file)
        write_frame(shard_file, payload + b" ")
        with pytest.raises(SnapshotCorruptionError, match="content digest"):
            load_checkpoint(directory)

    @pytest.mark.parametrize(
        "vector",
        [
            {"x": 1.0},
            {"1": "abc"},
            {"-1": 1.0},
            ["oops"],
            {"3000000000": 1.0},
            {"1": None},
            {"1": True},
            {"1": "2.5"},
            {" 1": 1.0},
            {"1": 10**400},
        ],
        ids=[
            "index-not-a-number",
            "value-not-a-number",
            "negative-index",
            "not-a-mapping",
            "index-past-int32",
            "value-null",
            "value-boolean",
            "value-numeric-string",
            "index-with-a-space",
            "value-past-float",
        ],
    )
    def test_a_malformed_vector_in_a_valid_frame_is_corruption(self, corpus, tmp_path, vector):
        """The frame's CRC vouches for the bytes, not for what they say."""
        directory = self._checkpoint(corpus, tmp_path)
        manifest = directory / MANIFEST_NAME
        document = read_json_frame(manifest)
        document["examples"][0][1] = vector
        write_json_frame(manifest, document)
        with pytest.raises(SnapshotCorruptionError, match="malformed feature vector"):
            load_checkpoint(directory)

    def test_missing_manifest_means_no_checkpoint(self, corpus, tmp_path):
        directory = self._checkpoint(corpus, tmp_path)
        (directory / MANIFEST_NAME).unlink()
        with pytest.raises(SnapshotCorruptionError, match="missing"):
            load_checkpoint(directory)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            load_checkpoint(tmp_path / "never-written")


DDL = """
CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
ENTITIES FROM Papers KEY id
LABELS FROM Paper_Area LABEL label
EXAMPLES FROM Example_Papers KEY id LABEL label
FEATURE FUNCTION tf_bag_of_words
USING SVM
"""


def build_engine_database(corpus, examples: int = 25) -> Database:
    db = Database()
    db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    db.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    db.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    db.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    db.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in corpus],
    )
    db.executemany(
        "INSERT INTO example_papers (id, label) VALUES (?, ?)",
        [
            (doc.entity_id, "database" if doc.label == 1 else "other")
            for doc in corpus[:examples]
        ],
    )
    return db


def cold_engine(corpus, **engine_options) -> HazyEngine:
    db = build_engine_database(corpus)
    engine = HazyEngine(
        db,
        architecture=engine_options.pop("architecture", "mainmemory"),
        strategy=engine_options.pop("strategy", "hazy"),
        approach=engine_options.pop("approach", "eager"),
        **engine_options,
    )
    db.execute(DDL)
    return engine


class TestEngineWarmRestart:
    def test_restore_matches_cold_state(self, corpus, tmp_path):
        engine = cold_engine(corpus)
        server = engine.serve("Labeled_Papers")
        server.flush()
        before = server.contents()
        server.checkpoint(tmp_path / "ckpt")
        server.close()

        restart = HazyEngine(
            build_engine_database(corpus),
            architecture="mainmemory",
            strategy="hazy",
            approach="eager",
        )
        restored = restart.restore("Labeled_Papers", tmp_path / "ckpt")
        try:
            assert restored.contents() == before
        finally:
            restored.close()
        # After close the direct maintainer answers (the view was handed back).
        view = restart.view("Labeled_Papers")
        assert view.label_of(corpus[0].entity_id) == before[corpus[0].entity_id]

    def test_restore_into_table_that_gained_rows(self, corpus, tmp_path):
        """Rows inserted after the checkpoint (while 'down') are replayed on restore."""
        engine = cold_engine(corpus)
        server = engine.serve("Labeled_Papers")
        server.flush()
        before = server.contents()
        server.checkpoint(tmp_path / "ckpt")
        server.close()

        extra = SparseCorpusGenerator(
            vocabulary_size=250, nonzeros_per_document=10, positive_fraction=0.4, seed=77
        ).generate_list(12)
        restart_db = build_engine_database(corpus)
        for doc in extra:
            restart_db.execute(
                "INSERT INTO papers (id, title) VALUES (?, ?)",
                (doc.entity_id + 50_000, doc.text),
            )
        restart_db.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (extra[0].entity_id + 50_000, "database"),
        )
        restart = HazyEngine(
            restart_db, architecture="mainmemory", strategy="hazy", approach="eager"
        )
        restored = restart.restore("Labeled_Papers", tmp_path / "ckpt")
        try:
            after = restored.contents()
            # Every snapshotted entity is still present; every new row was absorbed.
            assert set(after) == set(before) | {doc.entity_id + 50_000 for doc in extra}
            assert restored.epoch > 0  # the replay published at least one epoch
            for doc in extra:
                assert after[doc.entity_id + 50_000] in (-1, 1)
        finally:
            restored.close()

    def test_restore_into_table_that_lost_rows(self, corpus, tmp_path):
        """Entities deleted while 'down' disappear from the restored view."""
        engine = cold_engine(corpus)
        server = engine.serve("Labeled_Papers")
        server.flush()
        server.checkpoint(tmp_path / "ckpt")
        server.close()

        restart_db = build_engine_database(corpus)
        dropped = corpus[40].entity_id
        restart_db.execute("DELETE FROM papers WHERE id = ?", (dropped,))
        restart = HazyEngine(
            restart_db, architecture="mainmemory", strategy="hazy", approach="eager"
        )
        restored = restart.restore("Labeled_Papers", tmp_path / "ckpt")
        try:
            assert dropped not in restored.contents()
        finally:
            restored.close()

    def test_restore_rejects_wrong_view_name(self, corpus, tmp_path):
        engine = cold_engine(corpus)
        server = engine.serve("Labeled_Papers")
        server.checkpoint(tmp_path / "ckpt")
        server.close()
        restart = HazyEngine(
            build_engine_database(corpus),
            architecture="mainmemory",
            strategy="hazy",
            approach="eager",
        )
        with pytest.raises(SnapshotMismatchError, match="holds view"):
            restart.restore("Other_View", tmp_path / "ckpt")

    def test_restore_rejects_configuration_mismatch(self, corpus, tmp_path):
        engine = cold_engine(corpus)
        server = engine.serve("Labeled_Papers")
        server.checkpoint(tmp_path / "ckpt")
        server.close()
        restart = HazyEngine(
            build_engine_database(corpus),
            architecture="ondisk",
            strategy="hazy",
            approach="eager",
        )
        with pytest.raises(SnapshotMismatchError, match="architecture"):
            restart.restore("Labeled_Papers", tmp_path / "ckpt")

    def test_failed_restore_leaves_engine_clean(self, corpus, tmp_path, monkeypatch):
        """A restore that dies mid-flight must not poison the engine for a retry."""
        engine = cold_engine(corpus)
        server = engine.serve("Labeled_Papers")
        server.flush()
        before = server.contents()
        server.checkpoint(tmp_path / "ckpt")
        server.close()

        restart_db = build_engine_database(corpus)
        restart = HazyEngine(
            restart_db, architecture="mainmemory", strategy="hazy", approach="eager"
        )
        with pytest.raises(ConfigurationError, match="unknown serving option"):
            restart.restore("Labeled_Papers", tmp_path / "ckpt", bogus_option=True)

        def fail(*_args):
            raise RuntimeError("simulated failure during the replay")

        # The server is built and the view registered when the replay dies.
        monkeypatch.setattr(HazyEngine, "_replay_post_checkpoint", fail)
        with pytest.raises(RuntimeError, match="simulated failure"):
            restart.restore("Labeled_Papers", tmp_path / "ckpt")
        monkeypatch.undo()
        # Nothing was registered and the triggers were rolled back...
        assert "labeled_papers" not in restart.views
        assert restart_db.catalog.object_kind("Labeled_Papers") is None
        restart_db.execute(
            "INSERT INTO papers (id, title) VALUES (777001, 'post-failure row')"
        )
        # ...so the retry succeeds and picks up the row inserted in between.
        restored = restart.restore("Labeled_Papers", tmp_path / "ckpt")
        try:
            after = restored.contents()
            assert 777001 in after
            assert {k: v for k, v in after.items() if k in before} == before
        finally:
            restored.close()

    def test_restore_rejects_existing_view(self, corpus, tmp_path):
        engine = cold_engine(corpus)
        server = engine.serve("Labeled_Papers")
        server.checkpoint(tmp_path / "ckpt")
        server.close()
        # The same engine already holds the view: restoring over it is an error.
        with pytest.raises(ViewDefinitionError, match="already exists"):
            engine.restore("Labeled_Papers", tmp_path / "ckpt")
