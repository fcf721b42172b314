"""Serving quickstart: the full serving lifecycle in SQL alone.

Builds the same Papers view as ``examples/quickstart.py``, then drives the
serving subsystem entirely through the declarative surface:

* ``SERVE VIEW ... WITH (...)`` shards the entity space into hash partitions
  and starts the background maintenance pipeline; point reads coalesce in the
  request batcher, whose rounds run on the reading clients' own threads;
* concurrent clients are just extra :func:`repro.connect` connections — each
  one gets its own monotonic read-your-writes session, and its ``SELECT`` /
  ``INSERT`` statements route through the server automatically;
* ``CHECKPOINT VIEW ... TO`` takes a consistent snapshot while reads keep
  flowing, and after a "crash" a fresh process warm-starts the view with
  ``RESTORE VIEW ... FROM`` — no refeaturization, bit-identical answers;
* ``STOP SERVING`` hands the view back to the direct maintainer, consistent.

Run with::

    python examples/serving_quickstart.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import repro
from repro.workloads import SparseCorpusGenerator

VIEW_DDL = """
    CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
    ENTITIES FROM Papers KEY id
    LABELS FROM Paper_Area LABEL label
    EXAMPLES FROM Example_Papers KEY id LABEL label
    FEATURE FUNCTION tf_bag_of_words
    USING SVM
"""


def build_base_tables(conn, corpus) -> None:
    conn.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    conn.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    conn.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    conn.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    conn.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in corpus],
    )


def main() -> None:
    corpus = SparseCorpusGenerator(
        vocabulary_size=500, nonzeros_per_document=12, positive_fraction=0.35, seed=42
    ).generate_list(400)

    # 1. The application's tables and the classification view (Example 2.1).
    conn = repro.connect()
    build_base_tables(conn, corpus)
    conn.execute(VIEW_DDL)
    conn.executemany(
        "INSERT INTO example_papers (id, label) VALUES (?, ?)",
        [
            (doc.entity_id, "database" if doc.label == 1 else "other")
            for doc in corpus[:60]
        ],
    )

    # 2. Start serving — declaratively.  The batcher has nothing to tune: a
    #    round never waits, and reads that queue behind it form the next one.
    info = conn.execute("SERVE VIEW Labeled_Papers WITH (shards = 4)").fetchone()
    print(f"serving {info['view']} over {info['shards']} shards")

    # 3. Concurrent clients: each one is just another connection.  Readers
    #    hammer point SELECTs (coalesced by the batcher); a writer streams
    #    feedback as INSERTs and immediately re-reads its own writes.
    def reader(offset: int) -> None:
        with repro.connect(engine=conn.engine) as client:
            for step in range(200):
                doc = corpus[(offset + step * 13) % len(corpus)]
                client.execute(
                    "SELECT class FROM Labeled_Papers WHERE id = ?", (doc.entity_id,)
                ).scalar()

    def writer() -> None:
        with repro.connect(engine=conn.engine) as client:
            for doc in corpus[60:120]:
                client.execute(
                    "INSERT INTO example_papers (id, label) VALUES (?, ?)",
                    (doc.entity_id, "database" if doc.label == 1 else "other"),
                )
                # Read-your-writes: this SELECT reflects the INSERT just queued.
                client.execute(
                    "SELECT class FROM Labeled_Papers WHERE id = ?", (doc.entity_id,)
                ).scalar()

    threads = [threading.Thread(target=reader, args=(i * 37,)) for i in range(4)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    server = conn.engine.view("Labeled_Papers").server
    stats = server.stats()
    print(f"epoch after maintenance: {stats['epoch']}")
    batching = {key: value for key, value in stats.items() if key.startswith("batcher.")}
    print(f"read batching: {batching}")

    # The same numbers, through the SQL front door: the system.* virtual
    # tables expose the whole metrics registry and the serving dashboard.
    dashboard = conn.execute("SELECT * FROM system.served_views").fetchone()
    print(
        "system.served_views: "
        f"{dashboard['view']} epoch={dashboard['epoch']} "
        f"avg_batch={dashboard['batcher_avg_batch']:.2f} "
        f"cache_hits={dashboard['cache_hits_total']}"
    )
    metric_rows = conn.execute(
        "SELECT name, value FROM system.metrics ORDER BY name"
    ).fetchall()
    interesting = (
        "sql.statements_total",
        "serve.Labeled_Papers.batcher.requests_total",
        "serve.Labeled_Papers.epochs_published_total",
        "db.cost.simulated_seconds_total",
    )
    print(f"system.metrics ({len(metric_rows)} samples), a few of them:")
    for row in metric_rows:
        if row["name"] in interesting:
            print(f"  {row['name']} = {row['value']:.6g}")

    # 4. Scatter/gather reads and the cost model's view of them.
    count = conn.execute(
        "SELECT COUNT(*) FROM Labeled_Papers WHERE class = 'database'"
    ).scalar()
    print(f"papers labeled 'database': {count}")
    top = conn.execute(
        "SELECT id, margin FROM Labeled_Papers ORDER BY margin DESC LIMIT 3"
    ).fetchall()
    print(f"top-3 most-database papers: {[(row['id'], round(row['margin'], 3)) for row in top]}")
    plan = conn.execute("EXPLAIN SELECT id FROM Labeled_Papers WHERE class = 'database'").fetchall()
    access = plan[-1]
    print(f"plan: {access['node'].strip()}, ~{access['estimated_seconds']:.2e} simulated seconds")

    # 5. Checkpoint while serving (reads keep flowing), then "crash".
    checkpoint_dir = Path(tempfile.mkdtemp(prefix="hazy-ckpt-")) / "labeled_papers"
    info = conn.execute(f"CHECKPOINT VIEW Labeled_Papers TO '{checkpoint_dir}'").fetchone()
    print(f"checkpoint: epoch {info['epoch']}, {info['entities']} entities, {info['bytes']} bytes")
    answers_before = conn.execute("SELECT id, class FROM Labeled_Papers ORDER BY id").fetchall()
    conn.close()  # quiesces the served view — the "kill"

    # 6. A fresh process: recreate the durable base tables, RESTORE the view.
    #    The connection context manager quiesces everything on exit.
    with repro.connect() as conn2:
        build_base_tables(conn2, corpus)
        conn2.executemany(
            "INSERT INTO example_papers (id, label) VALUES (?, ?)",
            [
                (doc.entity_id, "database" if doc.label == 1 else "other")
                for doc in corpus[:120]
            ],
        )
        restored = conn2.execute(
            f"RESTORE VIEW Labeled_Papers FROM '{checkpoint_dir}'"
        ).fetchone()
        print(f"restored: serving again from epoch {restored['epoch']}")
        answers_after = conn2.execute(
            "SELECT id, class FROM Labeled_Papers ORDER BY id"
        ).fetchall()
        print(f"bit-identical answers after restore: {answers_after == answers_before}")

        # 7. Hand the view back; SQL keeps working on the direct maintainer.
        conn2.execute("STOP SERVING Labeled_Papers")
        total = conn2.execute("SELECT COUNT(*) FROM Labeled_Papers").scalar()
        print(f"stopped serving; direct view still answers over {total} papers")


if __name__ == "__main__":
    main()
