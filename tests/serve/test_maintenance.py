"""Tests for the background maintenance pipeline."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.view import view_contents
from repro.exceptions import MaintenanceError
from repro.serve.requests import WriteKind, WriteOp

from tests.serve.conftest import build_corpus_server, entity_row


def oracle_for(server, corpus):
    """Expected view contents under the server's current global model."""
    entities = {doc.entity_id: doc.features for doc in corpus}
    # Include entities added at runtime (their features live in the shards).
    current = {
        record.entity_id: record.features
        for shard in server.shards.shards
        for record in shard.maintainer.store.scan_all()
    }
    entities.update(current)
    return view_contents(entities.items(), server.trainer.model)


def test_queued_examples_apply_in_batches(serve_corpus, monkeypatch):
    monkeypatch.setattr("repro.serve.maintenance.MAX_WRITE_BATCH", 16)
    server = build_corpus_server(serve_corpus)
    try:
        tickets = [
            server.insert_example(doc.entity_id, doc.label) for doc in serve_corpus[:40]
        ]
        epoch = server.flush(timeout=30)
        assert all(ticket.wait(5) <= epoch for ticket in tickets)
        # Batching happened: fewer maintenance batches than operations.
        assert server.worker.batches_applied < 40
        assert server.worker.ops_applied == 40
        assert server.contents() == oracle_for(server, serve_corpus)
    finally:
        server.close(timeout=30)


def test_a_full_queue_blocks_the_producer_until_the_worker_drains(serve_corpus, monkeypatch):
    """Backpressure: with room for one queued write and the worker stalled
    behind the write lock, the next producer blocks (and is counted) instead
    of growing the backlog; once released, every write applies."""
    monkeypatch.setattr("repro.serve.maintenance.QUEUE_CAPACITY", 1)
    server = build_corpus_server(serve_corpus, shards=2)
    preparing, blocked = threading.Event(), threading.Event()
    prepare, put = server.writer.prepare, server.worker._queue.put

    def announcing_prepare(*args, **kwargs):
        preparing.set()  # the worker has drained its batch
        return prepare(*args, **kwargs)

    def announcing_put(item, block=True, timeout=None):
        if block:  # enqueue's put_nowait found the queue full
            blocked.set()
        return put(item, block, timeout)

    monkeypatch.setattr(server.writer, "prepare", announcing_prepare)
    monkeypatch.setattr(server.worker._queue, "put", announcing_put)
    docs = serve_corpus[:3]
    tickets = []
    producer = threading.Thread(
        target=lambda: tickets.append(server.insert_example(docs[2].entity_id, docs[2].label))
    )
    try:
        with server.rw_lock.write_locked():
            tickets.append(server.insert_example(docs[0].entity_id, docs[0].label))
            assert preparing.wait(10)  # taken, and stalled before its apply
            tickets.append(server.insert_example(docs[1].entity_id, docs[1].label))
            assert server.worker.backlog() == 1  # the queue is full
            assert server.worker.stats()["backpressure_waits_total"] == 0
            producer.start()
            assert blocked.wait(10)
            assert producer.is_alive() and len(tickets) == 2
            assert server.worker.stats()["backpressure_waits_total"] == 1
        producer.join(10)
        assert not producer.is_alive() and len(tickets) == 3
        assert server.stats()["maintenance.backpressure_waits_total"] == 1
        epoch = server.flush(timeout=30)  # its barrier may wait for room too
        assert all(ticket.wait(10) <= epoch for ticket in tickets)
        assert server.worker.ops_applied == 3
        assert server.contents() == oracle_for(server, serve_corpus)
    finally:
        server.close(timeout=30)


def test_entity_inserts_flow_through_the_queue(serve_corpus):
    server = build_corpus_server(serve_corpus)
    try:
        features = serve_corpus[0].features
        ticket = server.insert_entity(entity_row(90_001, features))
        ticket.wait(10)
        assert server.label_of(90_001) in (-1, 1)
        assert server.shards.count() == len(serve_corpus) + 1
        assert server.contents() == oracle_for(server, serve_corpus)
    finally:
        server.close(timeout=30)


def test_zero_cache_capacity_keeps_nothing(serve_corpus, monkeypatch):
    """0 means "keep none": no cached eps, while reads and writes still answer
    exactly what the oracle does."""
    monkeypatch.setattr("repro.serve.cache.CACHE_CAPACITY", 0)
    server = build_corpus_server(serve_corpus, shards=2)
    try:
        for doc in serve_corpus[:20]:
            server.insert_example(doc.entity_id, doc.label)
        server.insert_entity(entity_row(90_001, serve_corpus[0].features))
        server.flush(timeout=30)
        expected = oracle_for(server, serve_corpus)
        # A second pass is where a cache that kept anything would answer.
        for _ in range(2):
            assert server.labels_of(list(expected)) == expected
            assert server.label_of(90_001) == expected[90_001]
        assert server.contents() == expected
        assert server.stats()["cache.entries"] == 0
    finally:
        server.close(timeout=30)


def test_example_delete_retrains(serve_corpus):
    server = build_corpus_server(serve_corpus)
    try:
        doc = serve_corpus[0]
        server.insert_example(doc.entity_id, doc.label)
        server.flush(timeout=30)
        retained_before = len(server.writer.examples)
        op = WriteOp(
            kind=WriteKind.EXAMPLE_DELETE,
            old_row={"id": doc.entity_id, "label": doc.label},
        )
        server.worker.enqueue(op)
        op.ticket.wait(10)
        assert len(server.writer.examples) == retained_before - 1
        # Retrained-from-scratch model still yields a consistent view.
        assert server.contents() == oracle_for(server, serve_corpus)
    finally:
        server.close(timeout=30)


def test_flush_is_a_barrier(serve_corpus):
    server = build_corpus_server(serve_corpus)
    try:
        before = server.epoch
        for doc in serve_corpus[:10]:
            server.insert_example(doc.entity_id, doc.label)
        epoch = server.flush(timeout=30)
        assert epoch >= before
        assert server.worker.backlog() == 0
    finally:
        server.close(timeout=30)


def test_bad_write_fails_its_ticket_but_server_survives(serve_corpus):
    server = build_corpus_server(serve_corpus)
    try:
        ticket = server.insert_example(4242, 1)
        with pytest.raises(MaintenanceError):
            ticket.wait(10)
        # The pipeline keeps serving after the poison op.
        good = server.insert_example(serve_corpus[0].entity_id, serve_corpus[0].label)
        good.wait(10)
        assert server.label_of(serve_corpus[0].entity_id) in (-1, 1)

        # Batched with good writes it fails its own ticket and nothing else, and
        # leaves no trace.  A reader holds the worker at the write lock while
        # good, bad, good are queued, so the three share the next round.
        steps = server.trainer.model.version
        retained = len(server.writer.examples)
        gate, first, second = serve_corpus[1:4]
        with server.rw_lock.read_locked():
            held = server.insert_example(gate.entity_id, gate.label)
            deadline = time.monotonic() + 10
            while server.trainer.model.version == steps and time.monotonic() < deadline:
                time.sleep(0.001)
            before = server.insert_example(first.entity_id, first.label)
            bad = server.insert_example(4242, 1)
            after = server.insert_example(second.entity_id, second.label)
        epoch = server.flush(timeout=10)
        assert held.wait(10) < before.wait(10) == after.wait(10) == epoch
        with pytest.raises(MaintenanceError, match="unknown entity 4242"):
            bad.wait(10)
        assert isinstance(server.worker.last_error, MaintenanceError)
        assert len(server.writer.examples) == retained + 3
        assert server.trainer.model.version == steps + 3
        assert server.contents() == oracle_for(server, serve_corpus)
    finally:
        server.close(timeout=30)


def test_insert_then_delete_same_entity_in_one_batch(serve_corpus):
    """Intra-batch entity churn must replay in arrival order, not grouped."""
    server = build_corpus_server(serve_corpus)
    try:
        row = entity_row(90_001, serve_corpus[0].features)
        first = server.insert_entity(row)
        second = server.worker.enqueue(WriteOp(kind=WriteKind.ENTITY_DELETE, old_row=row))
        first.wait(10)
        second.wait(10)
        assert server.worker.last_error is None
        assert server.shards.count() == len(serve_corpus)
        assert 90_001 not in server.contents()
        # And an insert+update pair of the same entity also survives a batch.
        row = entity_row(90_002, serve_corpus[0].features)
        third = server.insert_entity(row)
        fourth = server.worker.enqueue(WriteOp(kind=WriteKind.ENTITY_UPDATE, row=row, old_row=row))
        third.wait(10)
        fourth.wait(10)
        assert server.worker.last_error is None
        assert server.shards.count() == len(serve_corpus) + 1
    finally:
        server.close(timeout=30)


def test_read_of_unknown_id_does_not_poison_the_batch(serve_corpus):
    """Per-key error isolation: one bad key fails only its own waiters."""
    import threading

    server = build_corpus_server(serve_corpus)
    try:
        results = {}
        errors = {}
        barrier = threading.Barrier(4, timeout=5)

        def read(key):
            barrier.wait()
            try:
                results[key] = server.label_of(key)
            except Exception as error:
                errors[key] = error

        good = [doc.entity_id for doc in serve_corpus[:3]]
        threads = [threading.Thread(target=read, args=(key,)) for key in good]
        threads.append(threading.Thread(target=read, args=("missing",)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(results) == sorted(good)
        assert set(errors) == {"missing"}
    finally:
        server.close(timeout=30)


def test_writes_rejected_after_close(serve_corpus):
    server = build_corpus_server(serve_corpus)
    server.close(timeout=30)
    with pytest.raises(MaintenanceError):
        server.insert_example(serve_corpus[0].entity_id, 1)


# ---------------------------------------------------------------------------
# When a maintenance round starts (demand-driven rounds)
# ---------------------------------------------------------------------------
#
# The deadline is patched per test — it is a module constant, not an option:
# a long one means that only a demand can have started a round (a lost demand
# shows as a timeout, never as a slow pass); a moderate one gives a paced
# burst room to land in a single round.  The asserts are on the worker's round
# count, not on elapsed time.


def _await_applied(worker, ops: int, timeout: float = 10.0) -> None:
    """Poll — deliberately without touching a ticket — until ``ops`` writes are applied."""
    deadline = time.monotonic() + timeout
    while worker.ops_applied < ops and time.monotonic() < deadline:
        time.sleep(0.002)
    assert worker.ops_applied == ops


def test_unawaited_burst_is_applied_as_one_round(serve_corpus, monkeypatch):
    monkeypatch.setattr("repro.serve.maintenance.ROUND_DEADLINE_S", 0.5, raising=False)
    server = build_corpus_server(serve_corpus)
    try:
        epoch = server.epoch
        for doc in serve_corpus[:10]:
            server.insert_example(doc.entity_id, doc.label)
            time.sleep(0.0005)  # pacing: lets a worker that wakes on every put run
        _await_applied(server.worker, 10)
        assert server.worker.batches_applied == 1
        assert server.epoch == epoch + 1
    finally:
        server.close(timeout=30)


@pytest.mark.parametrize("demand", ["ticket", "flush", "session_read"])
def test_a_waiter_starts_the_round_at_once(serve_corpus, monkeypatch, demand):
    monkeypatch.setattr("repro.serve.maintenance.ROUND_DEADLINE_S", 120.0)
    server = build_corpus_server(serve_corpus)
    try:
        doc = serve_corpus[0]
        if demand == "session_read":
            session = server.session()
            session.insert_example(doc.entity_id, doc.label)
            assert session.label_of(doc.entity_id) in (-1, 1)  # read-your-writes waits
        else:
            ticket = server.insert_example(doc.entity_id, doc.label)
            epoch = ticket.wait(10) if demand == "ticket" else server.flush(timeout=10)
            assert epoch == server.epoch
        assert server.worker.ops_applied == 1
        assert server.worker.batches_applied == 1
    finally:
        server.close(timeout=30)


def test_a_full_batch_starts_without_a_waiter(serve_corpus, monkeypatch):
    monkeypatch.setattr("repro.serve.maintenance.ROUND_DEADLINE_S", 120.0)
    monkeypatch.setattr("repro.serve.maintenance.MAX_WRITE_BATCH", 8)
    server = build_corpus_server(serve_corpus)
    try:
        for doc in serve_corpus[:8]:
            server.insert_example(doc.entity_id, doc.label)
        _await_applied(server.worker, 8)
        assert server.worker.batches_applied >= 1
    finally:
        server.close(timeout=30)


def test_no_demand_is_lost_between_drains(serve_corpus, monkeypatch):
    """Writers that enqueue and wait while the worker drains someone else's batch.

    With the deadline out of reach every round needs its demand: a wake-up
    lost between the worker's clear and its drain would leave a writer
    waiting out its ticket timeout.
    """
    monkeypatch.setattr("repro.serve.maintenance.ROUND_DEADLINE_S", 120.0)
    server = build_corpus_server(serve_corpus, shards=2)
    failures: list[BaseException] = []

    def writer(offset: int) -> None:
        try:
            for step in range(100):
                doc = serve_corpus[(offset + step) % len(serve_corpus)]
                server.insert_example(doc.entity_id, doc.label).wait(20)
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(index * 50,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert server.worker.ops_applied == 400
    finally:
        sys.setswitchinterval(interval)
        server.close(timeout=30)


def test_close_drains_what_nobody_waited_for(serve_corpus, monkeypatch):
    monkeypatch.setattr("repro.serve.maintenance.ROUND_DEADLINE_S", 120.0)
    server = build_corpus_server(serve_corpus)
    for doc in serve_corpus[:5]:
        server.insert_example(doc.entity_id, doc.label)
    server.close(timeout=30)
    assert server.worker.ops_applied == 5
    assert server.worker.backlog() == 0
