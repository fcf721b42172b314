"""The acceptance scenario of the declarative front door: the complete
create → serve → label → query → checkpoint → kill → restore → re-query cycle
expressed in SQL alone, through :func:`repro.connect` — this module never
imports ``HazyEngine`` or ``ViewServer``."""

from __future__ import annotations

import repro
from repro.workloads.synth_text import SparseCorpusGenerator

VIEW_DDL = """
    CREATE CLASSIFICATION VIEW labeled_papers KEY id
    ENTITIES FROM papers KEY id
    LABELS FROM paper_area LABEL label
    EXAMPLES FROM example_papers KEY id LABEL label
    FEATURE FUNCTION tf_bag_of_words USING SVM
"""


def corpus(count: int = 150, seed: int = 42):
    return SparseCorpusGenerator(
        vocabulary_size=400, nonzeros_per_document=12, positive_fraction=0.35, seed=seed
    ).generate_list(count)


def create_base_tables(conn, documents):
    """The application's durable state: recreated identically after the 'crash'."""
    conn.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    conn.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    conn.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    conn.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    conn.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )


def label_examples(conn, documents):
    conn.executemany(
        "INSERT INTO example_papers (id, label) VALUES (?, ?)",
        [(doc.entity_id, "database" if doc.label == 1 else "other") for doc in documents],
    )


def test_sql_only_end_to_end_checkpoint_restore(tmp_path):
    documents = corpus()
    checkpoint_dir = tmp_path / "ckpt"

    # -- first life: create, serve, label, query, checkpoint ----------------------
    conn = repro.connect()
    create_base_tables(conn, documents)
    conn.execute(VIEW_DDL)
    serve_row = conn.execute("SERVE VIEW labeled_papers WITH (shards = 2)").fetchone()
    assert serve_row["status"] == "serving"

    label_examples(conn, documents[:60])

    # Reads route through the server with this connection's session semantics.
    point = conn.execute(
        "SELECT class FROM labeled_papers WHERE id = ?", (documents[0].entity_id,)
    ).scalar()
    assert point in ("database", "other")
    count = conn.execute("SELECT COUNT(*) FROM labeled_papers WHERE class = 'database'").scalar()
    members = conn.execute("SELECT id FROM labeled_papers WHERE class = 'database'").fetchall()
    assert count == len(members)
    top = conn.execute(
        "SELECT id, margin FROM labeled_papers ORDER BY margin DESC LIMIT 5"
    ).fetchall()
    assert len(top) == 5
    assert all(earlier["margin"] >= later["margin"] for earlier, later in zip(top, top[1:]))

    # EXPLAIN prints the served plan without executing anything.
    plan = conn.execute("EXPLAIN SELECT class FROM labeled_papers WHERE id = 3").fetchall()
    assert plan[-1]["node"].strip() == "ServedPointRead(labeled_papers.id = 3)"
    assert plan[-1]["estimated_seconds"] > 0

    everything_before = conn.execute("SELECT id, class FROM labeled_papers ORDER BY id").fetchall()
    info = conn.execute(f"CHECKPOINT VIEW labeled_papers TO '{checkpoint_dir}'").fetchone()
    assert info["entities"] == len(documents)

    # -- the kill: the process goes away, base tables survive ----------------------
    conn.close()

    # -- second life: same base tables, RESTORE instead of CREATE ------------------
    conn2 = repro.connect()
    create_base_tables(conn2, documents)
    label_examples(conn2, documents[:60])
    restore_row = conn2.execute(f"RESTORE VIEW labeled_papers FROM '{checkpoint_dir}'").fetchone()
    assert restore_row["status"] == "serving"
    assert restore_row["epoch"] == info["epoch"]
    assert restore_row["checkpoint_epoch"] == info["epoch"]
    assert restore_row["examples"] == 60  # the labels given before the checkpoint

    everything_after = conn2.execute("SELECT id, class FROM labeled_papers ORDER BY id").fetchall()
    assert everything_after == everything_before  # bit-identical answers

    # The restored view is live: new feedback flows through SQL and is
    # observed by this connection's own next read.
    fresh = documents[60:80]
    label_examples(conn2, fresh)
    re_point = conn2.execute(
        "SELECT class FROM labeled_papers WHERE id = ?", (fresh[0].entity_id,)
    ).scalar()
    assert re_point in ("database", "other")

    conn2.execute("STOP SERVING labeled_papers")
    # After STOP SERVING the direct maintainer answers the same SQL.
    assert conn2.execute("SELECT COUNT(*) FROM labeled_papers").scalar() == len(documents)
    conn2.close()


def test_restore_rejects_diverged_checkpoint_name(tmp_path):
    documents = corpus(count=40, seed=9)
    conn = repro.connect()
    create_base_tables(conn, documents)
    conn.execute(VIEW_DDL)
    conn.execute("SERVE VIEW labeled_papers")
    conn.execute(f"CHECKPOINT VIEW labeled_papers TO '{tmp_path / 'ck'}'")
    conn.close()

    conn2 = repro.connect()
    create_base_tables(conn2, documents)
    import pytest

    from repro.exceptions import SnapshotMismatchError

    with pytest.raises(SnapshotMismatchError, match="holds view"):
        conn2.execute(f"RESTORE VIEW other_view FROM '{tmp_path / 'ck'}'")
    conn2.close()
