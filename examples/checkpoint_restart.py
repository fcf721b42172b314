"""Checkpoint & warm-restart quickstart: checkpoint -> kill -> warm serve.

Builds the Papers classification view, serves it, and writes a checkpoint
while reads keep flowing.  Then the "process dies": every in-memory object is
thrown away.  A second engine — the restarted process — reloads the base
tables, and ``engine.restore(name, path)`` (``RESTORE VIEW``) brings the view
back by importing the snapshot instead of re-featurizing and re-classifying
every entity; rows inserted while the server was down are picked up by the
replay.

Run with::

    python examples/checkpoint_restart.py
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

from repro import Database, HazyEngine
from repro.workloads import SparseCorpusGenerator

DDL = """
CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
ENTITIES FROM Papers KEY id
LABELS FROM Paper_Area LABEL label
EXAMPLES FROM Example_Papers KEY id LABEL label
FEATURE FUNCTION tf_bag_of_words
USING SVM
"""


def load_base_tables(corpus) -> Database:
    """The application's durable state: entity and example tables."""
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
            for doc in corpus[:80]
        ],
    )
    return db


def main() -> None:
    corpus = SparseCorpusGenerator(
        vocabulary_size=600, nonzeros_per_document=12, positive_fraction=0.35, seed=42
    ).generate_list(600)
    checkpoint_dir = Path(tempfile.mkdtemp(prefix="hazy-ckpt-")) / "labeled_papers"

    # ---- first life: cold start, serve, checkpoint -------------------------------
    db = load_base_tables(corpus)
    engine = HazyEngine(db, architecture="mainmemory", strategy="hazy", approach="eager")
    db.execute(DDL)
    view = engine.view("Labeled_Papers")
    server = engine.serve("Labeled_Papers", shards=4)
    server.flush()
    # Cold start pays twice: featurize/classify into the view's maintainer,
    # then bulk-load every shard.
    cold_cost = view.maintainer.store.stats.simulated_seconds + server.simulated_seconds()
    balance_before = Counter(server.contents().values())
    probe = corpus[3].entity_id
    label_before = server.label_of(probe)

    info = server.checkpoint(checkpoint_dir)
    print(
        f"checkpointed {info['entities']} entities at epoch {info['epoch']} "
        f"({info['bytes'] / 1024:.0f} KiB) while readers stayed live"
    )
    server.close()

    # ---- the process "dies"; rows keep arriving in the durable tables ------------
    del server, engine, view, db
    db = load_base_tables(corpus)
    late_arrivals = SparseCorpusGenerator(
        vocabulary_size=600, nonzeros_per_document=12, positive_fraction=0.35, seed=7
    ).generate_list(25)
    for doc in late_arrivals:
        db.execute(
            "INSERT INTO papers (id, title) VALUES (?, ?)",
            (doc.entity_id + 1_000_000, doc.text),
        )

    # ---- second life: warm restart from the snapshot -----------------------------
    engine = HazyEngine(db, architecture="mainmemory", strategy="hazy", approach="eager")
    server = engine.restore("Labeled_Papers", checkpoint_dir)
    warm_cost = server.simulated_seconds()
    print(
        f"warm restart served {server.shards.count()} entities "
        f"(snapshot + {len(late_arrivals)} replayed late arrivals)"
    )
    balance_after = Counter(server.contents().values())
    print(f"probe entity label: before={label_before}  after={server.label_of(probe)}")
    print(f"class balance: before={dict(balance_before)}  after={dict(balance_after)}")
    print(
        f"simulated start-up seconds: cold={cold_cost:.6f}  warm={warm_cost:.6f}  "
        f"({cold_cost / max(warm_cost, 1e-12):.1f}x cheaper)"
    )
    server.close()


if __name__ == "__main__":
    main()
