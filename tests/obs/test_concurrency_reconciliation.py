"""Counter exactness under concurrency: totals must reconcile, not drift.

N client threads hammer a served view with Single Entity reads.  Afterwards
every aggregate the observability layer reports must agree *exactly* with the
ground truth it mirrors:

* the batcher saw exactly ``N * M`` requests (locked counters lose nothing);
* cache hits + misses summed over shards equals the per-shard breakdown
  reported by ``per_shard_stats`` (one source of truth, two views of it);
* the shard ledgers' simulated seconds sum equals the server total that the
  registry mirrors.
"""

from __future__ import annotations

import threading

import pytest

import repro
from repro.workloads.synth_text import SparseCorpusGenerator

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW labeled_papers KEY id "
    "ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label "
    "EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)


def test_hammered_served_view_counters_reconcile_exactly():
    threads_n, reads_m = 6, 40
    conn = repro.connect()
    conn.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    conn.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    conn.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    conn.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    documents = SparseCorpusGenerator(
        vocabulary_size=250, nonzeros_per_document=10, positive_fraction=0.4, seed=7
    ).generate_list(80)
    conn.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    for doc in documents[:12]:
        conn.execute(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            (doc.entity_id, "database" if doc.label == 1 else "other"),
        )
    conn.execute(VIEW_DDL)
    conn.execute("SERVE VIEW labeled_papers WITH (shards = 3)")
    server = conn.engine.view("labeled_papers").server

    ids = [doc.entity_id for doc in documents]
    barrier = threading.Barrier(threads_n)
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        barrier.wait()
        try:
            # Each thread reads its own 13 ids: the batcher reads a key asked
            # for twice in one round once, so shared ids would make the cache
            # count fewer lookups than there were requests.
            for i in range(reads_m):
                server.label_of(ids[offset * 13 + i % 13])
        except BaseException as error:  # surface, don't hang the join
            errors.append(error)

    pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads_n)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors

    stats = server.stats()
    per_shard = server.shards.per_shard_stats()

    # Every submitted read was counted, exactly once.
    assert stats["batcher.requests_total"] == threads_n * reads_m

    # Aggregated cache counters == sum of the per-shard ground truth.
    for key in ("hits", "misses", "invalidations"):
        assert stats[f"cache.{key}_total"] == sum(
            shard[f"cache_{key}_total"] for shard in per_shard
        )
    # Every read resolved from cache or store; nothing double- or un-counted.
    assert stats["cache.hits_total"] + stats["cache.misses_total"] == threads_n * reads_m

    # The server's simulated-seconds total is exactly the shard-ledger sum,
    # and the registry mirrors the server number (shards + training cost).
    ledger_sum = sum(shard["simulated_seconds_total"] for shard in per_shard)
    assert server.shards.simulated_seconds() == pytest.approx(ledger_sum)
    mirrored = conn.database.obs.registry.value(
        "serve.labeled_papers.simulated_seconds_total"
    )
    assert mirrored == pytest.approx(server.simulated_seconds())
    assert mirrored >= ledger_sum

    conn.execute("STOP SERVING labeled_papers")
    conn.close()
