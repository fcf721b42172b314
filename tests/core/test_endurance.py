"""Endurance oracle: a maintained view's memory under ``repro.core`` stops growing.

The paper's Skiing rule needs only running totals (the accumulated waste, the
last measured reorganization cost and alpha), and the band statistics only a
round count and a size total, so a Hazy maintainer may keep nothing per
update.  An eager Hazy main-memory view, unserved and on two shards, takes
``N`` example inserts, each followed by a point read on the same connection
(so every write is its own maintenance round), and then ``N`` more; the memory
``tracemalloc`` sees allocated under ``repro/core`` may not grow between the
two halves by more than :data:`BOUND_BYTES`.

Two things are left out of the bound on purpose:

* ``core/writes.py``: ``ViewWriter.examples`` keeps every training example by
  design, because a deleted example retrains the model from the ones left
  (the paper's footnote 2) — about 216 bytes an update.
* ``repro/serve``: ``tracemalloc`` names the line that first allocated a
  block, and CPython recycles small dict key tables through a free list, so
  the key table of the keyword-argument dict built for each ``WriteOp(...)``
  is later reused by a dict the base table keeps and reported as growth at
  the ``WriteOp`` line (built positionally, the same bytes are reported under
  ``repro/db`` instead, and the total does not move).  A per-write dict built
  and freed under ``repro/core`` would be misreported the same way, which is
  one reason the bound has slack.

While the Skiing strategy kept a log of its decisions and the statistics kept
lists of band sizes and widths, the second half retained about 57 KiB there
unserved and 117 KiB on two shards (each shard's maintainer keeps its own).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

import repro
from repro.workloads.synth_text import SparseCorpusGenerator

#: Updates per half.
N = 300

#: The most the second half may add under ``repro/core`` (``writes.py`` aside).
BOUND_BYTES = 8 * 1024

CORE = [
    tracemalloc.Filter(True, "*/repro/core/*"),
    # ViewWriter.examples keeps every example by design (see the module docstring).
    tracemalloc.Filter(False, "*/repro/core/writes.py"),
]

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW labeled KEY id "
    "ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label "
    "EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)


def build(shards: int | None):
    conn = repro.connect(architecture="mainmemory", strategy="hazy", approach="eager")
    conn.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    conn.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    conn.execute("CREATE TABLE example_papers (k integer PRIMARY KEY, id integer, label text)")
    conn.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    documents = SparseCorpusGenerator(
        vocabulary_size=250, nonzeros_per_document=10, positive_fraction=0.4, seed=23
    ).generate_list(60)
    conn.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    conn.execute(VIEW_DDL)
    if shards is not None:
        conn.execute(f"SERVE VIEW labeled WITH (shards = {shards})")
    return conn, documents


def run_updates(conn, documents, start: int, count: int) -> None:
    """``count`` example inserts, each read back at once; one in four mislabelled."""
    for key in range(start, start + count):
        doc = documents[key % len(documents)]
        positive = (doc.label == 1) != (key % 4 == 0)
        conn.execute(
            "INSERT INTO example_papers (k, id, label) VALUES (?, ?, ?)",
            (key, doc.entity_id, "database" if positive else "other"),
        )
        conn.execute("SELECT class FROM labeled WHERE id = ?", (doc.entity_id,))


def maintainers(conn):
    view = conn.engine.view("labeled")
    if view.server is None:
        return [view.maintainer]
    return [shard.maintainer for shard in view.server.shards.shards]


def settled_snapshot() -> tracemalloc.Snapshot:
    gc.collect()
    return tracemalloc.take_snapshot().filter_traces(CORE)


@pytest.mark.parametrize("shards", [None, 2], ids=["unserved", "2 shards"])
def test_core_memory_does_not_grow_with_updates(shards):
    conn, documents = build(shards)
    tracemalloc.start()
    try:
        run_updates(conn, documents, 0, N)
        first = settled_snapshot()
        updates_before = [maintainer.stats.updates for maintainer in maintainers(conn)]
        run_updates(conn, documents, N, N)
        second = settled_snapshot()
        updates_after = [maintainer.stats.updates for maintainer in maintainers(conn)]
    finally:
        tracemalloc.stop()
        conn.close()

    # Every write was its own maintenance round, on every maintainer.
    rounds = [after - before for before, after in zip(updates_before, updates_after)]
    assert rounds == [N] * len(rounds)
    stats = second.compare_to(first, "lineno")
    growth = sum(stat.size_diff for stat in stats)
    top = "\n".join(str(stat) for stat in stats[:5])
    assert growth < BOUND_BYTES, f"repro/core grew {growth} B over {N} updates:\n{top}"
