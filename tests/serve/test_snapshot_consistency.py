"""Snapshot consistency of reads during concurrent maintenance.

The acceptance property of the serving subsystem: every read executes against
one fully applied epoch — never a half-applied batch — and epochs observed by
any single client never move backwards.  The tests drive reader threads
against a server while a writer streams training examples through the
background pipeline, then verify each epoch-tagged answer against the
declarative oracle (:func:`repro.core.view.view_contents`) evaluated at that
epoch's published model.
"""

from __future__ import annotations

import threading

from repro.core.view import view_contents

from tests.serve.conftest import build_standalone_server

READERS = 4
WRITES = 60


def test_all_members_reads_are_snapshot_consistent(serve_corpus):
    """Concurrent gather reads match the oracle at their tagged epoch exactly."""
    server = build_standalone_server(
        serve_corpus, num_shards=4, epoch_history=100_000, max_write_batch=4
    )
    entities = [(doc.entity_id, doc.features) for doc in serve_corpus]
    observations: list[tuple[int, frozenset]] = []
    lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader():
        try:
            while not stop.is_set():
                members, epoch = server.read("all_members", 1)
                with lock:
                    observations.append((epoch, frozenset(members)))
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    try:
        for thread in threads:
            thread.start()
        for doc in serve_corpus[:WRITES]:
            server.insert_example(doc.entity_id, doc.label)
        server.flush(timeout=60)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

    assert not errors
    assert observations
    epochs_seen = {epoch for epoch, _ in observations}
    assert len(epochs_seen) > 1, "maintenance should have advanced the epoch mid-read"
    for epoch, members in set(observations):
        model = server.model_for_epoch(epoch)
        assert model is not None
        oracle = view_contents(entities, model)
        expected = frozenset(k for k, v in oracle.items() if v == 1)
        assert members == expected, f"read at epoch {epoch} mixed model versions"
    server.close(timeout=30)


def test_single_reads_are_snapshot_consistent(serve_corpus):
    """Batched label_of answers agree with the oracle at their tagged epoch."""
    server = build_standalone_server(
        serve_corpus, num_shards=4, epoch_history=100_000, max_write_batch=4
    )
    features = {doc.entity_id: doc.features for doc in serve_corpus}
    observations: list[tuple[object, int, int]] = []
    lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader(offset):
        try:
            index = offset
            while not stop.is_set():
                doc = serve_corpus[index % len(serve_corpus)]
                index += 1
                label, epoch = server.read("label_of", doc.entity_id)
                with lock:
                    observations.append((doc.entity_id, label, epoch))
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(i * 17,)) for i in range(READERS)]
    try:
        for thread in threads:
            thread.start()
        for doc in serve_corpus[:WRITES]:
            server.insert_example(doc.entity_id, doc.label)
        server.flush(timeout=60)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

    assert not errors
    assert observations
    for entity_id, label, epoch in observations:
        model = server.model_for_epoch(epoch)
        assert model is not None
        assert label == model.predict(features[entity_id]), (
            f"label of {entity_id!r} at epoch {epoch} does not match that epoch's model"
        )
    server.close(timeout=30)


def test_sessions_are_monotonic_with_read_your_writes(serve_corpus):
    """Per-client sessions never observe epochs going backwards, and writes
    are visible to the writer's next read."""
    server = build_standalone_server(serve_corpus, num_shards=4, epoch_history=100_000)
    errors: list[BaseException] = []

    def client(offset):
        try:
            session = server.session()
            trail = []
            for step in range(15):
                doc = serve_corpus[(offset + step * 7) % len(serve_corpus)]
                ticket = session.insert_example(doc.entity_id, doc.label)
                session.label_of(doc.entity_id)  # waits for the ticket: RYW
                assert session.last_epoch >= ticket.wait(0)
                trail.append(session.last_epoch)
            assert trail == sorted(trail), "session epochs must be monotonic"
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i * 31,)) for i in range(READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    server.close(timeout=30)
