"""A served view runs exactly one thread of its own, whatever its shard count.

A shard is a partition, not a thread: every shard operation runs on the
caller's thread under the shard's lock, and so does every read batcher round
(the reader that opens a round runs it).  The one thread that carries meaning
is the maintenance worker (write-behind).  Nothing else may start, and nothing
may be left running after ``STOP SERVING`` — or after a ``SERVE VIEW`` that
fails, which must start its thread only once nothing else can raise.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ConfigurationError

from tests.db.test_sql_serving import build_portal

VIEW = "labeled_papers"
SERVING_THREADS = ["hazy-maintenance"]


def started_since(before: set[threading.Thread]) -> list[str]:
    """Names of the ``hazy-*`` threads alive now that were not in ``before``."""
    return sorted(
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("hazy-") and thread not in before
    )


@pytest.mark.parametrize("shards", [1, 3, 8])
def test_a_served_view_runs_one_thread(tmp_path, shards):
    db, _engine, documents = build_portal(count=40)
    before = set(threading.enumerate())
    db.execute(f"SERVE VIEW {VIEW} WITH (shards = {shards})")
    try:
        db.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, 'other')",
            (documents[35].entity_id,),
        )
        db.execute(f"SELECT class FROM {VIEW} WHERE id = ?", (documents[0].entity_id,))
        db.execute(f"SELECT id FROM {VIEW} WHERE class = 1")
        db.execute(f"CHECKPOINT VIEW {VIEW} TO '{tmp_path / 'checkpoint'}'")
        assert started_since(before) == SERVING_THREADS
    finally:
        db.execute(f"STOP SERVING {VIEW}")
    assert started_since(before) == []


def test_a_refused_serve_starts_no_thread():
    db, engine, _ = build_portal(count=20)
    before = set(threading.enumerate())
    with pytest.raises(ConfigurationError, match="shards"):
        db.execute(f"SERVE VIEW {VIEW} WITH (shards = -1)")
    assert started_since(before) == []
    assert engine.view(VIEW).server is None


def test_a_serve_whose_wal_cannot_open_leaves_no_thread(tmp_path):
    db, engine, _ = build_portal(count=20)
    regular_file = tmp_path / "not-a-directory"
    regular_file.write_text("")
    before = set(threading.enumerate())
    with pytest.raises(OSError):
        db.execute(f"SERVE VIEW {VIEW} WITH (wal = '{regular_file / 'wal'}')")
    assert started_since(before) == []
    assert engine.view(VIEW).server is None
