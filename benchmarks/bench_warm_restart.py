"""Warm restart vs cold bulk load: the checkpoint/recovery gate.

A serving process that dies loses nothing *logical* — the base tables still
hold every entity and example — but the seed system paid a full cold start to
get back: re-featurize every entity, retrain, re-classify, re-cluster, once
for the view's direct maintainer and once per shard.  The checkpoint
subsystem (``src/repro/persist``) writes the derived state — per-entity ε
values, labels, the water-band watermarks of Lemma 3.1, the model vector and
the epoch clock — so a restart imports it and replays only post-checkpoint
churn.

The gate enforced here:

* warm restart is **>= 5x cheaper** in simulated seconds than the cold path
  on the main-memory architecture (the paper's Hazy-MM default), and strictly
  cheaper on the I/O-bound architectures (where both paths pay the same heap
  page writes, so the win is the avoided dot products and sort);
* post-recovery answers are **bit-identical**: same ``contents()`` map and
  the same ``top_k`` margins to the last bit (the snapshot codec round-trips
  floats exactly).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Database, HazyEngine
from repro.bench.reporting import format_table
from repro.workloads import SparseCorpusGenerator

ENTITIES = 900
EXAMPLES = 60
GRID = ("mainmemory", "ondisk", "hybrid")
#: Gate thresholds per architecture (simulated-seconds speedup, cold / warm).
MIN_SPEEDUP = {"mainmemory": 5.0, "ondisk": 1.2, "hybrid": 1.2}

DDL = """
CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
ENTITIES FROM Papers KEY id
LABELS FROM Paper_Area LABEL label
EXAMPLES FROM Example_Papers KEY id LABEL label
FEATURE FUNCTION tf_bag_of_words
USING SVM
"""


def _corpus():
    generator = SparseCorpusGenerator(
        vocabulary_size=600, nonzeros_per_document=12, positive_fraction=0.35, seed=17
    )
    return generator.generate_list(ENTITIES)


def _build_database(corpus) -> Database:
    """Base tables with every entity and example row already present."""
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
            for doc in corpus[:EXAMPLES]
        ],
    )
    return db


def _startup_cost(db: Database, view, server) -> float:
    """Simulated seconds one start-up path charged, across every ledger it touched."""
    cost = db.pool.stats.simulated_seconds + server.simulated_seconds()
    if view.maintainer._loaded:
        cost += view.maintainer.store.stats.simulated_seconds
    return cost


def run_restart_experiment(architecture: str, checkpoint_dir: str | Path, corpus=None) -> dict:
    """One cold start + checkpoint + one warm restart; returns the comparison row."""
    corpus = corpus if corpus is not None else _corpus()

    # ---- cold path: CREATE CLASSIFICATION VIEW + serve (full featurize/classify)
    cold_db = _build_database(corpus)
    cold_base = cold_db.pool.stats.simulated_seconds
    cold_engine = HazyEngine(cold_db, architecture=architecture, strategy="hazy", approach="eager")
    cold_db.execute(DDL)
    cold_view = cold_engine.view("Labeled_Papers")
    cold_server = cold_engine.serve("Labeled_Papers")
    cold_server.flush()
    cold_cost = _startup_cost(cold_db, cold_view, cold_server) - cold_base

    before_contents = cold_server.contents()
    before_top = cold_server.top_k(25)
    info = cold_server.checkpoint(checkpoint_dir)
    cold_server.close()

    # ---- warm path: a "new process" — same base tables, state from the snapshot
    warm_db = _build_database(corpus)
    warm_base = warm_db.pool.stats.simulated_seconds
    warm_engine = HazyEngine(warm_db, architecture=architecture, strategy="hazy", approach="eager")
    warm_server = warm_engine.restore("Labeled_Papers", checkpoint_dir)
    warm_view = warm_engine.view("Labeled_Papers")
    warm_cost = _startup_cost(warm_db, warm_view, warm_server) - warm_base

    after_contents = warm_server.contents()
    after_top = warm_server.top_k(25)
    warm_server.close()

    identical = before_contents == after_contents and before_top == after_top
    speedup = cold_cost / warm_cost if warm_cost > 0 else float("inf")
    return {
        "architecture": architecture,
        "entities": len(before_contents),
        "cold_simulated_s": round(cold_cost, 6),
        "warm_simulated_s": round(warm_cost, 6),
        "speedup": round(speedup, 2),
        "snapshot_kib": round(info["bytes"] / 1024.0, 1),
        "identical": int(identical),
        "min_speedup": MIN_SPEEDUP[architecture],
    }


def build_table(corpus=None) -> list[dict]:
    corpus = corpus if corpus is not None else _corpus()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for architecture in GRID:
            rows.append(
                run_restart_experiment(architecture, Path(tmp) / architecture, corpus=corpus)
            )
    return rows


def test_warm_restart_gate(benchmark, tmp_path):
    """The PR gate: >= 5x cheaper on Hazy-MM, cheaper everywhere, identical answers."""
    corpus = _corpus()
    rows = benchmark.pedantic(lambda: build_table(corpus), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Warm restart vs cold bulk load (simulated seconds)"))
    by_architecture = {row["architecture"]: row for row in rows}
    for architecture, row in by_architecture.items():
        assert row["identical"] == 1, f"{architecture}: post-recovery answers differ"
        assert row["speedup"] >= MIN_SPEEDUP[architecture], (
            f"{architecture}: warm restart speedup {row['speedup']}x is below the "
            f"{MIN_SPEEDUP[architecture]}x gate"
        )


def test_warm_restart_resumes_serving(tmp_path):
    """After a warm restart the pipeline keeps absorbing writes and answering reads."""
    corpus = _corpus()[:300]
    db = _build_database(corpus)
    engine = HazyEngine(db, architecture="mainmemory", strategy="hazy", approach="eager")
    db.execute(DDL)
    server = engine.serve("Labeled_Papers")
    server.flush()
    server.checkpoint(tmp_path / "ckpt")
    server.close()

    restart_db = _build_database(corpus)
    restart_engine = HazyEngine(
        restart_db, architecture="mainmemory", strategy="hazy", approach="eager"
    )
    restored = restart_engine.restore("Labeled_Papers", tmp_path / "ckpt")
    session = restored.session()
    # Fresh example rows (ids past the EXAMPLES prefix already in the table).
    for doc in corpus[EXAMPLES : EXAMPLES + 10]:
        session.insert_example(doc.entity_id, "database" if doc.label == 1 else "other")
    labels = {session.label_of(doc.entity_id) for doc in corpus[:20]}
    assert labels <= {-1, 1}
    assert restored.epoch > 0
    restored.close()
