"""What a checkpoint reads from disk, and what it vouches for before it commits.

A restore reads each shard file once: its digest, its size and its decode come
from the same bytes.  A checkpoint hashes the shard frames it writes from the
bytes in hand, and an incremental one checks the digest of every parent shard
it carries forward before it writes its manifest, so it never commits a
reference to a file that was rewritten or corrupted after the parent.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.exceptions import SnapshotCorruptionError
from repro.persist import MANIFEST_NAME, load_checkpoint
from repro.persist.checkpoint import shard_file_name
from repro.persist.format import read_frame, write_frame

from tests.persist.test_checkpoint_restore import cold_engine

FULL = Path(__file__).with_name("data") / "full"
SHARDS = [FULL / shard_file_name(index) for index in range(2)]


@pytest.fixture
def opened(monkeypatch):
    """Counts every ``Path.open`` for reading, by file name."""
    reads: Counter[str] = Counter()
    open_path = Path.open

    def counting(path, mode="r", *args, **kwargs):
        if "r" in mode:
            reads[path.name] += 1
        return open_path(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting)
    return reads


def test_a_restore_reads_each_shard_file_once(opened):
    loaded = load_checkpoint(FULL)
    assert [opened[path.name] for path in SHARDS] == [1, 1]
    assert opened[MANIFEST_NAME] == 1
    # The size priced as snapshot_read is the bytes read.
    assert [state.payload_bytes for state in loaded.shard_states] == [
        path.stat().st_size for path in SHARDS
    ]


@pytest.fixture
def served(corpus):
    engine = cold_engine(corpus)
    engine.database.execute("SERVE VIEW Labeled_Papers WITH (shards = 2)")
    server = engine.view("Labeled_Papers").server
    server.flush()
    yield engine.database, server
    server.close()


def checkpoint(database, path: Path, incremental: bool = False) -> dict:
    option = " WITH (incremental = true)" if incremental else ""
    return database.execute(f"CHECKPOINT VIEW Labeled_Papers TO '{path}'{option}").rows[0]


def test_a_checkpoint_hashes_its_shard_frames_without_reading_them_back(served, opened, tmp_path):
    database, _ = served
    assert checkpoint(database, tmp_path / "full")["shards_written"] == 2
    assert not [name for name in opened if name.startswith("shard-")]
    load_checkpoint(tmp_path / "full")  # the recorded digests are the files'


def rewrite(path: Path) -> None:
    """A valid frame with different content, as a later writer would leave it."""
    write_frame(path, read_frame(path) + b" ")


def corrupt(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("damage", [rewrite, corrupt])
def test_an_incremental_checkpoint_over_a_damaged_parent_shard_commits_nothing(
    served, tmp_path, damage
):
    database, _ = served
    checkpoint(database, tmp_path / "full")
    damage(tmp_path / "full" / shard_file_name(1))
    with pytest.raises(SnapshotCorruptionError, match="content digest") as raised:
        checkpoint(database, tmp_path / "inc", incremental=True)
    assert shard_file_name(1) in str(raised.value)
    assert not (tmp_path / "inc" / MANIFEST_NAME).exists()


def test_an_incremental_checkpoint_reads_each_parent_shard_it_carries_once(
    served, opened, tmp_path
):
    database, _ = served
    checkpoint(database, tmp_path / "full")
    opened.clear()
    info = checkpoint(database, tmp_path / "inc", incremental=True)
    assert info["shards_written"] == 0
    assert [opened[shard_file_name(index)] for index in range(2)] == [1, 1]
    load_checkpoint(tmp_path / "inc")
