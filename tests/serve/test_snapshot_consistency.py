"""Snapshot consistency of reads during concurrent maintenance.

The acceptance property of the serving subsystem: every read executes against
one fully applied epoch — never a half-applied batch — and epochs observed by
any single client never move backwards.  The tests drive reader threads
against a server while a writer streams training examples through the
background pipeline, then verify each epoch-tagged answer against the
declarative oracle (:func:`repro.core.view.view_contents`) evaluated at that
epoch's published model.

Each test runs on three cells.  Main-memory eager is the one whose reads
write nothing.  Lazy Hazy on the hybrid and on-disk stores is where reads
*write*: a lazy read records waste and may reorganize, and both stores read
through a small, unlocked buffer pool, so the shard's lock is all that keeps
a batcher round, a scatter/gather read, the maintenance worker and a
concurrent ``checkpoint()`` from interleaving inside one shard.  Every
checkpoint taken mid-stream is restored and must hold exactly the view at the
epoch it was cut at.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.maintainers import HazyEagerMaintainer, HazyLazyMaintainer
from repro.core.stores import HybridEntityStore, InMemoryEntityStore, OnDiskEntityStore
from repro.core.view import view_contents
from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.costmodel import CostModel
from repro.persist.checkpoint import load_checkpoint

from tests.serve.conftest import build_corpus_server, record_epoch_models, restore_directly

READERS = 4
WRITES = 60
BATCH = 4
#: Pages per shard pool: small enough that reads evict and re-fetch pages.
POOL_PAGES = 8


def small_pool() -> BufferPool:
    return BufferPool(CostModel(), capacity_pages=POOL_PAGES, statistics=IOStatistics())


#: cell -> (store factory, maintainer factory)
CELLS = {
    "mainmemory-eager": (
        lambda: InMemoryEntityStore(feature_norm_q=1.0),
        lambda store: HazyEagerMaintainer(store, alpha=1.0),
    ),
    "hybrid-lazy": (
        lambda: HybridEntityStore(pool=small_pool(), feature_norm_q=1.0, buffer_fraction=0.1),
        lambda store: HazyLazyMaintainer(store, alpha=1.0),
    ),
    "ondisk-lazy": (
        lambda: OnDiskEntityStore(pool=small_pool(), feature_norm_q=1.0),
        lambda store: HazyLazyMaintainer(store, alpha=1.0),
    ),
}


@pytest.fixture(params=sorted(CELLS))
def factories(request):
    store_factory, maintainer_factory = CELLS[request.param]
    return {"store_factory": store_factory, "maintainer_factory": maintainer_factory}


def serve_under_load(server, corpus, reader, tmp_path, reader_args) -> list:
    """Run ``reader`` on READERS threads and a checkpointing thread while
    WRITES examples stream through the pipeline; returns the checkpoint paths."""
    stop = threading.Event()
    errors: list[BaseException] = []
    checkpoints: list = []

    def guarded(body, *args):
        try:
            body(stop, *args)
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    def checkpointer(stop):
        while not stop.is_set():
            path = tmp_path / f"checkpoint-{len(checkpoints)}"
            server.checkpoint(path, incremental=bool(checkpoints))
            checkpoints.append(path)

    threads = [threading.Thread(target=guarded, args=(reader, arg)) for arg in reader_args]
    threads.append(threading.Thread(target=guarded, args=(checkpointer,)))
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-3)  # switch threads more often than the default 5 ms
    try:
        for thread in threads:
            thread.start()
        for count, doc in enumerate(corpus[:WRITES], start=1):
            ticket = server.insert_example(doc.entity_id, doc.label)
            if count % BATCH == 0:
                ticket.wait(timeout=60)  # one batch per epoch, readers between
        server.flush(timeout=60)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert checkpoints
    return checkpoints


def assert_checkpoints_hold_their_epoch(server, models, checkpoints, entities, factories) -> None:
    """Each checkpoint restores to exactly the view at the epoch it was cut at
    (the first one cut at each epoch is restored; the rest only load)."""
    restored_epochs: set[int] = set()
    for path in checkpoints:
        loaded = load_checkpoint(path)
        if loaded.published.epoch in restored_epochs:
            continue
        restored_epochs.add(loaded.published.epoch)
        model = models[loaded.published.epoch]
        restored = restore_directly(server._view.database, path, **factories)
        try:
            assert restored.contents() == view_contents(entities, model), path.name
        finally:
            restored.close(timeout=30)


def test_all_members_reads_are_snapshot_consistent(
    serve_corpus, factories, tmp_path, monkeypatch
):
    """Concurrent gather reads match the oracle at their tagged epoch exactly."""
    monkeypatch.setattr("repro.serve.maintenance.MAX_WRITE_BATCH", BATCH)
    server = build_corpus_server(serve_corpus, shards=4, **factories)
    models = record_epoch_models(server)
    entities = [(doc.entity_id, doc.features) for doc in serve_corpus]
    observations: list[tuple[int, frozenset]] = []
    lock = threading.Lock()

    def reader(stop, _):
        while not stop.is_set():
            members, epoch = server.read("all_members", 1)
            with lock:
                observations.append((epoch, frozenset(members)))

    checkpoints = serve_under_load(server, serve_corpus, reader, tmp_path, range(READERS))

    assert observations
    epochs_seen = {epoch for epoch, _ in observations}
    assert len(epochs_seen) > 1, "maintenance should have advanced the epoch mid-read"
    for epoch, members in set(observations):
        oracle = view_contents(entities, models[epoch])
        expected = frozenset(k for k, v in oracle.items() if v == 1)
        assert members == expected, f"read at epoch {epoch} mixed model versions"
    assert_checkpoints_hold_their_epoch(server, models, checkpoints, entities, factories)
    server.close(timeout=30)


def test_single_reads_are_snapshot_consistent(serve_corpus, factories, tmp_path, monkeypatch):
    """Batched label_of answers agree with the oracle at their tagged epoch."""
    monkeypatch.setattr("repro.serve.maintenance.MAX_WRITE_BATCH", BATCH)
    server = build_corpus_server(serve_corpus, shards=4, **factories)
    models = record_epoch_models(server)
    entities = [(doc.entity_id, doc.features) for doc in serve_corpus]
    features = dict(entities)
    observations: list[tuple[object, int, int]] = []
    lock = threading.Lock()

    def reader(stop, offset):
        index = offset
        while not stop.is_set():
            doc = serve_corpus[index % len(serve_corpus)]
            index += 1
            label, epoch = server.read("label_of", doc.entity_id)
            with lock:
                observations.append((doc.entity_id, label, epoch))

    checkpoints = serve_under_load(
        server, serve_corpus, reader, tmp_path, [i * 17 for i in range(READERS)]
    )

    assert observations
    for entity_id, label, epoch in observations:
        assert label == models[epoch].predict(features[entity_id]), (
            f"label of {entity_id!r} at epoch {epoch} does not match that epoch's model"
        )
    assert_checkpoints_hold_their_epoch(server, models, checkpoints, entities, factories)
    server.close(timeout=30)


def test_sessions_are_monotonic_with_read_your_writes(serve_corpus, factories):
    """Per-client sessions never observe epochs going backwards, and writes
    are visible to the writer's next read, which answers as its epoch's model does."""
    server = build_corpus_server(serve_corpus, shards=4, **factories)
    models = record_epoch_models(server)
    errors: list[BaseException] = []

    def client(offset):
        try:
            session = server.session()
            trail = []
            for step in range(15):
                doc = serve_corpus[(offset + step * 7) % len(serve_corpus)]
                ticket = session.insert_example(doc.entity_id, doc.label)
                label = session.label_of(doc.entity_id)  # waits for the ticket: RYW
                assert session.last_epoch >= ticket.wait(0)
                assert label == models[session.last_epoch].predict(doc.features)
                trail.append(session.last_epoch)
            assert trail == sorted(trail), "session epochs must be monotonic"
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i * 31,)) for i in range(READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    server.close(timeout=30)
