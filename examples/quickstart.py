"""Quickstart: the whole system through one connection and plain SQL.

This walks through the paper's Example 2.1 — a ``Papers`` table, a label
vocabulary, a training-example table, and a ``CREATE CLASSIFICATION VIEW``
statement — using :func:`repro.connect`, the declarative front door.  Training
examples arrive as ordinary SQL ``INSERT`` statements and the view is queried
with ordinary ``SELECT`` statements; Hazy keeps the view's contents up to date
behind the scenes.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.db.costmodel import CostModel
from repro.workloads import SparseCorpusGenerator


def main() -> None:
    # 1. One connection: database + engine behind a cursor-style API.  The
    # main-memory cost model is the paper's Hazy-MM architecture; it is also
    # what makes per-match index probes cheap relative to rescanning below.
    # The connection is a context manager: leaving the block quiesces any
    # served views and closes the engine.
    with repro.connect(cost_model=CostModel.main_memory()) as conn:
        run_demo(conn)


def run_demo(conn: repro.Connection) -> None:
    conn.execute(
        "CREATE TABLE papers (id integer PRIMARY KEY, title text, year integer)"
    )
    conn.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    conn.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    conn.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")

    # Populate the Papers table with a small synthetic corpus (a stand-in for
    # papers crawled from the Web, as in DBLife).
    corpus = SparseCorpusGenerator(
        vocabulary_size=500, nonzeros_per_document=12, positive_fraction=0.35, seed=42
    ).generate_list(300)
    conn.executemany(
        "INSERT INTO papers (id, title, year) VALUES (?, ?, ?)",
        [(doc.entity_id, doc.text, 1990 + doc.entity_id % 21) for doc in corpus],
    )

    # 2. Declare the classification view — pure DDL, no objects to wire up.
    conn.execute(
        """
        CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
        ENTITIES FROM Papers KEY id
        LABELS FROM Paper_Area LABEL label
        EXAMPLES FROM Example_Papers KEY id LABEL label
        FEATURE FUNCTION tf_bag_of_words
        USING SVM
        """
    )
    total = conn.execute("SELECT COUNT(*) FROM Labeled_Papers").scalar()
    print(f"view created over {total} papers")

    # 3. User feedback arrives as ordinary INSERTs into the example table.
    conn.executemany(
        "INSERT INTO example_papers (id, label) VALUES (?, ?)",
        [
            (doc.entity_id, "database" if doc.label == 1 else "other")
            for doc in corpus[:120]
        ],
    )

    # 4. Query the view with plain SQL.
    database_papers = conn.execute(
        "SELECT COUNT(*) FROM Labeled_Papers WHERE class = 'database'"
    ).scalar()
    print(f"papers currently labeled 'database': {database_papers}")

    # Single Entity read ("is paper 7 a database paper?").
    label = conn.execute("SELECT class FROM Labeled_Papers WHERE id = 7").scalar()
    print(f"paper 7 is labeled: {label}")

    # EXPLAIN shows the plan the executor will walk before running it.
    plan = conn.execute("EXPLAIN SELECT class FROM Labeled_Papers WHERE id = 7").fetchall()
    access = plan[-1]
    print(
        f"plan: {access['node'].strip()}, "
        f"~{access['estimated_seconds']:.2e} simulated seconds"
    )

    # A secondary B+-tree index turns selective non-key predicates into index
    # probes; the planner re-costs cached plans the moment the index exists.
    conn.execute("CREATE INDEX idx_paper_year ON papers (year)")
    recent_sql = "SELECT id FROM papers WHERE year >= 2009"
    plan = conn.execute(f"EXPLAIN {recent_sql}").fetchall()
    recent = conn.execute(recent_sql).rowcount
    print(f"indexed plan: {plan[-1]['node'].strip()} ({recent} recent papers)")

    # 5. Measure the classifier against the generator's ground truth.
    correct = sum(
        1
        for doc in corpus
        if conn.execute(
            "SELECT class FROM Labeled_Papers WHERE id = ?", (doc.entity_id,)
        ).scalar()
        == ("database" if doc.label == 1 else "other")
    )
    print(f"agreement with ground truth: {correct}/{len(corpus)}")


if __name__ == "__main__":
    main()
