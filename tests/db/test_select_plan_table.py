"""Every SELECT shape's EXPLAIN rows and every planner refusal, pinned.

``select_plan_golden.json`` was recorded before the planner planned a
single-table SELECT as a join of one (``PYTHONPATH=src:. python
tests/db/test_select_plan_table.py --record`` rewrites it from the current
code).  ``plans`` holds the ``(node, estimated_seconds, detail)`` rows
``EXPLAIN`` prints for each read shape over one base table, a classification
view — unserved and served on 2 shards — and the joins between them;
``refusals`` holds every planner refusal as ``(class, message, position,
token)``.  Only the cells under ``moved_plans`` / ``moved_refusals`` may
differ from what was recorded, and they print what is stored there: a
``NULL`` or ``TRUE`` bound is spelled as the SQL literal, a view's ``margin``
referenced in a join gets the message it gets from ``FROM v``, and a view read
bound by ``class = x`` answers that conjunct itself, so it leaves the residual
``Filter`` (and the ``Filter`` goes when nothing else is left in it).  The
refusal of a bad qualifier on the fused top-k's ORDER BY was added later, as
a recorded row of its own, and so were the ``COUNT(*)`` reads with an ORDER BY
or a LIMIT (the ``count …`` cells below ``count``): a ``Limit`` above the
``Aggregate``, and no ``Sort``, ``TopK``, index-ordered walk or fused top-k
under it.  Later still an unserved view joined on its key came to read the
probe keys in one batch as a served one does (``ViewPointRead(labeled,
batch)``): those cells moved too, and serving now changes a plan's names,
details and estimates, never its shape.  Then a range over an integer index
column came to be estimated by the integer values it covers: an index probe's
estimate and its ``~N of M rows`` moved, nothing else.  Last, a view point
read came to answer its own ``key = k`` as a class read answers ``class = x``:
the two ``view point`` cells lost their ``Filter``.  Last, every view read came
to charge one statement per store it touches: the cells under ``priced_plans``
differ from their recorded or moved rows only in one scan-shaped view read's
estimate, ``sum(overhead + scan)`` over its stores, and in the served contents
read's detail (one scan per shard, not a point read per entity).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro.core.engine import HazyEngine
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql.parser import parse
from repro.db.sql.plan import Filter
from repro.db.sql.planner import SelectPlan
from repro.exceptions import SQLExecutionError
from repro.workloads.synth_text import SparseCorpusGenerator

GOLDEN_PATH = Path(__file__).with_name("select_plan_golden.json")

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW labeled KEY id ENTITIES FROM papers KEY id "
    "LABELS FROM paper_area LABEL label EXAMPLES FROM example_papers KEY id LABEL label "
    "FEATURE FUNCTION tf_bag_of_words USING SVM"
)
ITEMS_DDL = "CREATE TABLE items (id integer PRIMARY KEY, num integer, score float, tag text)"
TAGS = ("alpha", "beta", "gamma", "delta")

#: ``items`` carries a one-column and a composite index; ``papers`` only its
#: primary key; ``labeled`` is the classification view over ``papers``.
JOIN = "FROM papers JOIN labeled ON papers.id = labeled.id"
ITEMS_JOIN = "FROM items JOIN papers ON items.id = papers.id"
PAPERS_ITEMS_JOIN = "FROM papers JOIN items ON papers.id = items.id"

TABLE_READS = {
    "seq scan": "SELECT * FROM items WHERE score > 0.5",
    "pk point": "SELECT * FROM items WHERE id = 3",
    "one-column index": "SELECT * FROM items WHERE tag = 'beta'",
    "composite index": "SELECT * FROM items WHERE num = 4 AND score >= 0.0",
    "covering index": "SELECT num, score FROM items WHERE num = 4 AND score >= 0.0",
    "index-ordered asc": "SELECT * FROM items ORDER BY num ASC LIMIT 3",
    "index-ordered desc": "SELECT id, score FROM items WHERE num = 4 ORDER BY score DESC LIMIT 3",
    "sort": "SELECT id, tag FROM items WHERE score < 0.0 ORDER BY tag",
    "top-k": "SELECT * FROM items ORDER BY score DESC LIMIT 5",
    "limit": "SELECT id FROM items LIMIT 4",
    "count": "SELECT COUNT(*) FROM items WHERE num = 4",
    "count limit": "SELECT COUNT(*) FROM items LIMIT 5",
    "count limit 0": "SELECT COUNT(*) FROM items LIMIT 0",
    "count order by limit": "SELECT COUNT(*) FROM items ORDER BY score LIMIT 3",
    "count index order": "SELECT COUNT(*) FROM items WHERE num = 4 ORDER BY score DESC LIMIT 3",
    "count order by": "SELECT COUNT(*) FROM items WHERE score < 0.0 ORDER BY tag",
    "qualified projection": "SELECT items.id, items.tag FROM items WHERE items.num >= 20",
    "null bound": "SELECT id FROM items WHERE tag = NULL",
    "true bound": "SELECT id FROM items WHERE num = TRUE",
    "placeholder": "SELECT id FROM items WHERE num = ? AND score > ?",
    "system table": "SELECT * FROM system.plan_cache",
    "system table ordered": "SELECT * FROM system.plan_cache ORDER BY sql LIMIT 2",
}
VIEW_READS = {
    "view point": "SELECT class FROM labeled WHERE id = 1",
    "view members": "SELECT id FROM labeled WHERE class = 'database' ORDER BY id",
    "view top-k": "SELECT id, margin FROM labeled ORDER BY margin DESC LIMIT 3",
    "view top-k, qualified": "SELECT labeled.id FROM labeled ORDER BY labeled.margin DESC LIMIT 2",
    "view count": "SELECT COUNT(*) FROM labeled WHERE class = 'other'",
    "view count limit": "SELECT COUNT(*) FROM labeled LIMIT 3",
    "view count top-k": "SELECT COUNT(*) FROM labeled ORDER BY margin DESC LIMIT 3",
    "table join table": f"SELECT items.id, papers.title {ITEMS_JOIN} WHERE items.num = 4",
    "indexed join side": f"SELECT papers.id, score {PAPERS_ITEMS_JOIN} WHERE num = 4 AND score > 0",
    "table join view": f"SELECT papers.id, class {JOIN}",
    "table join view, class predicate": f"SELECT papers.id, class {JOIN} WHERE class = 'database'",
    "table join view, key range": f"SELECT title {JOIN} WHERE class = 'other' AND labeled.id >= 5",
    "table join view on class": "SELECT items.id FROM items JOIN labeled ON tag = class",
    "view join table": "SELECT title FROM labeled JOIN papers ON labeled.id = papers.id",
    "colliding renames": f"SELECT * {JOIN}",
    "colliding renamed projection": f"SELECT labeled.id, papers.id, title {JOIN}",
    "join order by renamed column": f"SELECT * {JOIN} ORDER BY labeled.id DESC LIMIT 3",
    "join sort": f"SELECT papers.id, class {JOIN} ORDER BY class",
    "join limit": f"SELECT title {JOIN} LIMIT 2",
    "join count": f"SELECT COUNT(*) {JOIN} WHERE class = 'other'",
    "join count order by limit": f"SELECT COUNT(*) {JOIN} ORDER BY papers.id DESC LIMIT 2",
    "join unqualified order": f"SELECT items.id, title {ITEMS_JOIN} ORDER BY title LIMIT 4",
    "join placeholder": f"SELECT items.id {ITEMS_JOIN} WHERE num = ? AND papers.id < ?",
}
STATES = ("unserved", "2 shards")

REFUSED = {
    "no such table": "SELECT * FROM nope",
    "no such join table": "SELECT * FROM items JOIN nope ON items.id = nope.id",
    "unknown qualifier in WHERE": "SELECT id FROM items WHERE other.num = 1",
    "unknown qualifier in SELECT list": "SELECT other.id FROM items",
    "unknown qualifier in ORDER BY": "SELECT id FROM items ORDER BY other.num",
    "unknown qualifier in ORDER BY LIMIT": "SELECT id FROM items ORDER BY other.num LIMIT 2",
    "unknown qualifier on a view": "SELECT other.id FROM labeled",
    "unknown qualifier on a system table": "SELECT other.sql FROM system.plan_cache",
    "join unknown qualifier in WHERE": f"SELECT items.id {ITEMS_JOIN} WHERE other.num = 1",
    "join unknown qualifier in SELECT list": f"SELECT other.id {ITEMS_JOIN}",
    "join unknown qualifier in ORDER BY": f"SELECT items.id {ITEMS_JOIN} ORDER BY other.id",
    "join unknown qualifier in ON": "SELECT * FROM items JOIN papers ON other.id = papers.id",
    "unknown column in WHERE": "SELECT id FROM items WHERE nope = 1",
    "unknown qualified column in WHERE": "SELECT id FROM items WHERE items.nope = 1",
    "unknown column in SELECT list": "SELECT id, nope FROM items",
    "unknown column in ORDER BY": "SELECT id FROM items ORDER BY nope",
    "unknown column in ORDER BY LIMIT": "SELECT id FROM items ORDER BY nope LIMIT 3",
    "WHERE before ORDER BY": "SELECT nope1 FROM items WHERE nope2 = 1 ORDER BY nope3",
    "ORDER BY before SELECT list": "SELECT nope1 FROM items ORDER BY nope3",
    "unknown view column in WHERE": "SELECT id FROM labeled WHERE nope = 1",
    "unknown view column in SELECT list": "SELECT nope FROM labeled",
    "unknown view column in ORDER BY": "SELECT id FROM labeled ORDER BY nope",
    "join unknown column in WHERE": f"SELECT items.id {ITEMS_JOIN} WHERE nope = 1",
    "join unknown qualified column in WHERE": f"SELECT items.id {ITEMS_JOIN} WHERE papers.nope = 1",
    "join unknown column in SELECT list": f"SELECT nope {ITEMS_JOIN}",
    "join unknown qualified column in SELECT list": f"SELECT papers.nope {ITEMS_JOIN}",
    "join unknown column in ORDER BY": f"SELECT items.id {ITEMS_JOIN} ORDER BY nope",
    "join unknown column in ON": "SELECT * FROM items JOIN papers ON items.nope = papers.id",
    "join unknown view column": f"SELECT nope {JOIN}",
    "join ON before WHERE": "SELECT * FROM items JOIN papers ON nope1 = papers.id WHERE nope2 = 1",
    "join WHERE before ORDER BY": f"SELECT nope1 {ITEMS_JOIN} WHERE nope2 = 1 ORDER BY nope3",
    "join ORDER BY before SELECT list": f"SELECT nope1 {ITEMS_JOIN} ORDER BY nope3",
    "ambiguous column in SELECT list": f"SELECT id {ITEMS_JOIN}",
    "ambiguous column in WHERE": f"SELECT items.id {ITEMS_JOIN} WHERE id = 1",
    "ambiguous column in ORDER BY": f"SELECT items.id {ITEMS_JOIN} ORDER BY id",
    "ambiguous column in ON": "SELECT * FROM items JOIN papers ON id = papers.id",
    "ON on one side": "SELECT * FROM items JOIN papers ON items.id = items.num",
    "ON on the right side twice": "SELECT * FROM items JOIN papers ON papers.id = title",
    "system table on the right of a join": "SELECT * FROM items JOIN system.plan_cache ON id = sql",
    "system table on the left of a join": "SELECT * FROM system.plan_cache JOIN items ON sql = id",
    "margin in WHERE": "SELECT id FROM labeled WHERE margin > 0",
    "margin in SELECT list": "SELECT id, margin FROM labeled",
    "margin in SELECT list ordered by id": "SELECT margin FROM labeled ORDER BY id DESC LIMIT 3",
    "qualified margin in SELECT list": "SELECT labeled.margin FROM labeled",
    "margin ASC": "SELECT id FROM labeled ORDER BY margin ASC LIMIT 3",
    "margin without LIMIT": "SELECT id FROM labeled ORDER BY margin DESC",
    "margin with WHERE": "SELECT id FROM labeled WHERE id = 1 ORDER BY margin DESC LIMIT 3",
    "margin before SELECT list": "SELECT nope FROM labeled ORDER BY margin ASC LIMIT 3",
    "unknown qualifier on the fused top-k's ORDER BY": (
        "SELECT id FROM labeled ORDER BY other.margin DESC LIMIT 2"
    ),
    "join margin in SELECT list": f"SELECT margin {JOIN}",
    "join qualified margin in SELECT list": f"SELECT labeled.margin {JOIN}",
    "join margin in WHERE": f"SELECT title {JOIN} WHERE margin > 0",
    "join margin in ORDER BY": f"SELECT title {JOIN} ORDER BY margin DESC LIMIT 3",
    "join margin in ON": "SELECT * FROM papers JOIN labeled ON papers.id = margin",
}


def build(architecture: str = "mainmemory") -> Database:
    """40 papers under a classification view, priced in memory, beside an
    ``items`` table the index paths win on."""
    db = Database(cost_model=CostModel.main_memory())
    db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text)")
    db.execute("CREATE TABLE paper_area (label text PRIMARY KEY)")
    db.execute("CREATE TABLE example_papers (id integer PRIMARY KEY, label text)")
    db.execute("INSERT INTO paper_area (label) VALUES ('database'), ('other')")
    generator = SparseCorpusGenerator(
        vocabulary_size=300, nonzeros_per_document=10, positive_fraction=0.4, seed=11
    )
    documents = generator.generate_list(40)
    db.executemany(
        "INSERT INTO papers (id, title) VALUES (?, ?)",
        [(doc.entity_id, doc.text) for doc in documents],
    )
    HazyEngine(db, architecture=architecture)
    db.execute(VIEW_DDL)
    db.executemany(
        "INSERT INTO example_papers (id, label) VALUES (?, ?)",
        [(doc.entity_id, "database" if doc.label == 1 else "other") for doc in documents[:30]],
    )
    db.execute(ITEMS_DDL)
    db.executemany(
        "INSERT INTO items (id, num, score, tag) VALUES (?, ?, ?, ?)",
        [(i, i * 7 % 25, round(i * 37 % 41 / 10 - 2.0, 2), TAGS[i % 4]) for i in range(120)],
    )
    db.execute("CREATE INDEX idx_tag ON items (tag)")
    db.execute("CREATE INDEX idx_ns ON items (num, score)")
    return db


def _explain(db: Database, sql: str) -> list[list]:
    rows = db.execute(f"EXPLAIN {sql}").rows
    return [[row["node"], row["estimated_seconds"], row["detail"]] for row in rows]


def plan_table() -> dict[str, list[list]]:
    """``{"<read> / <state>": [[node, estimated_seconds, detail], ...]}``."""
    db = build()
    table = {f"{read} / unserved": _explain(db, sql) for read, sql in TABLE_READS.items()}
    for state in STATES:
        if state != "unserved":
            db.execute("SERVE VIEW labeled WITH (shards = 2)")
        for read, sql in VIEW_READS.items():
            table[f"{read} / {state}"] = _explain(db, sql)
    db.execute("STOP SERVING labeled")
    return table


def refusal_table() -> dict[str, list]:
    """``{refusal: [class, message, position, token]}``."""
    db = build()
    table = {}
    for refusal, sql in REFUSED.items():
        with pytest.raises(SQLExecutionError) as excinfo:
            db.execute(sql)
        error = excinfo.value
        table[refusal] = [type(error).__name__, str(error), error.position, error.token]
    return table


CELLS = [f"{read} / unserved" for read in TABLE_READS]
CELLS += [f"{read} / {state}" for read in VIEW_READS for state in STATES]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_the_recorded_tables_cover_every_cell(golden):
    assert sorted(golden["plans"]) == sorted(CELLS)
    assert sorted(golden["refusals"]) == sorted(REFUSED)


@pytest.fixture(scope="module")
def plans():
    return plan_table()


@pytest.fixture(scope="module")
def refusals():
    return refusal_table()


@pytest.mark.parametrize("cell", CELLS)
def test_explain_rows_equal_the_recorded_ones(golden, plans, cell):
    moved = golden["moved_plans"].get(cell, golden["plans"][cell])
    assert plans[cell] == golden["priced_plans"].get(cell, moved)


@pytest.mark.parametrize("refusal", REFUSED)
def test_refusals_equal_the_recorded_ones(golden, refusals, refusal):
    expected = golden["moved_refusals"].get(refusal, golden["refusals"][refusal])
    assert refusals[refusal] == expected


def plan_trees() -> dict[str, dict[str, SelectPlan]]:
    """``{state: {read: plan}}`` for every SELECT above."""
    db = build()
    trees = {}
    for state in STATES:
        if state != "unserved":
            db.execute("SERVE VIEW labeled WITH (shards = 2)")
        trees[state] = {
            read: db.executor.plan_select(parse(sql))
            for read, sql in {**TABLE_READS, **VIEW_READS}.items()
        }
    db.execute("STOP SERVING labeled")
    return trees


@pytest.fixture(scope="module")
def trees():
    return plan_trees()


@pytest.mark.parametrize("read", [*TABLE_READS, *VIEW_READS])
def test_serving_never_changes_a_plans_shape(trees, read):
    """Serving changes a plan's names, details and estimates, never its nodes."""
    shapes = [
        [(depth, type(node).__name__) for depth, node in trees[state][read].root.walk()]
        for state in STATES
    ]
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize("read", [*TABLE_READS, *VIEW_READS])
def test_no_filter_re_checks_a_conjunct_its_child_answers(trees, read):
    for state in STATES:
        for _, node in trees[state][read].root.walk():
            if isinstance(node, Filter):
                (child,) = node.children
                rechecked = [p.render() for p in node.predicates if p in child.answered]
                assert not rechecked, (state, node.label())


def _spelled_in_python(rows: list[list]) -> list[list]:
    """``rows`` with their labels' SQL literals spelled as Python's ``repr``."""
    return [[row[0].replace("NULL", "None").replace("TRUE", "True"), *row[1:]] for row in rows]


def _answered(rows: list[list], answers) -> list[list]:
    """``rows`` with every conjunct ``answers(conjunct, child)`` says the node
    right below its ``Filter`` answers out of that ``Filter``; a ``Filter``
    left empty goes, and its subtree moves up one level."""
    answered: list[list] = []
    dropped_at = None  # the indent of a dropped Filter while in its subtree
    for at, (node, *rest) in enumerate(rows):
        indent = len(node) - len(node.lstrip())
        if dropped_at is not None and indent > dropped_at:
            answered.append([node[2:], *rest])
            continue
        dropped_at = None
        if node.lstrip().startswith("Filter("):
            child = rows[at + 1][0].strip()
            conjuncts = node.strip()[len("Filter(") : -1].split(" AND ")
            kept = [c for c in conjuncts if not answers(c, child)]
            if not kept:
                dropped_at = indent
                continue
            node = f"{' ' * indent}Filter({' AND '.join(kept)})"
        answered.append([node, *rest])
    return answered


def class_answered(rows: list[list]) -> list[list]:
    """``rows`` with every ``class = x`` conjunct out of its ``Filter``."""
    return _answered(rows, lambda conjunct, child: conjunct.startswith("class = "))


def key_answered(rows: list[list]) -> list[list]:
    """``rows`` with a view point read's own ``key = k`` — the conjunct its
    label prints — out of the ``Filter`` right above it."""

    def answers(conjunct: str, child: str) -> bool:
        point_read = child.startswith(("ViewPointRead(", "ServedPointRead("))
        return point_read and child.endswith(f".{conjunct})")

    return _answered(rows, answers)


def probe_read(rows: list[list], before: list[list], served: list[list]) -> bool:
    """Whether ``rows`` are ``before`` with the ``ViewScan`` of an unserved key
    join swapped for the probe-side batch read its served twin plans."""
    scans = [i for i, row in enumerate(before) if row[0].strip() == "ViewScan(labeled)"]
    if len(scans) != 1 or len(rows) != len(before):
        return False
    (at,) = scans
    batch = before[at][0].replace("ViewScan(labeled)", "ViewPointRead(labeled, batch)")
    twin = [row[0].replace("ServedPointRead(", "ViewPointRead(") for row in served]
    return (
        rows[:at] + rows[at + 1 :] == before[:at] + before[at + 1 :]
        and rows[at][:2] == [batch, None]
        and [row[0] for row in rows] == twin
    )


def estimate_moved(rows: list[list], before: list[list]) -> bool:
    """Whether ``rows`` are ``before`` with only index probes' estimates moved:
    the same nodes, and a changed row is a ``SecondaryIndexRange`` whose
    detail differs in its ``~N`` rows alone."""

    def unsized(detail: str) -> str:
        return re.sub(r"~\d+ of", "~ of", detail)

    if [row[0] for row in rows] != [row[0] for row in before]:
        return False
    changed = [(row, old) for row, old in zip(rows, before) if row != old]
    return all(
        row[0].strip().startswith("SecondaryIndexRange(") and unsized(row[2]) == unsized(old[2])
        for row, old in changed
    )


def test_the_moved_cells_moved_only_where_intended(golden):
    """A moved plan differs only in how its labels spell a literal, in the
    ``class = x`` conjuncts its view read answers, in the key a view point
    read answers, in an index probe's estimate, or — an unserved join on the
    view key — in reading the probe keys as its served twin does; a moved
    refusal keeps its class, position and token and takes ``FROM v``'s
    text."""
    plans = {**golden["plans"], **golden["moved_plans"]}
    for cell, rows in golden["moved_plans"].items():
        before = golden["plans"][cell]
        twin = plans.get(cell.replace(" / unserved", " / 2 shards"), [])
        assert rows != before
        assert (
            _spelled_in_python(rows) == before
            or rows == class_answered(before)
            or rows == key_answered(before)
            or probe_read(rows, before, twin)
            or estimate_moved(rows, before)
        )
    single_source = golden["refusals"]["margin in SELECT list"][1]
    for refusal, moved in golden["moved_refusals"].items():
        before = golden["refusals"][refusal]
        assert refusal.startswith("join") and "margin" in refusal
        assert [moved[0], *moved[2:]] == [before[0], *before[2:]]
        assert moved[1] == single_source != before[1]


def test_the_priced_cells_moved_only_one_view_reads_estimate(golden):
    """On the 40-entity view one store's scan is 8e-06 s and a statement 7e-05 s,
    so a scan-shaped view read is priced 7.8e-05 s unserved and 0.000148 s on 2
    shards, contents and All Members alike."""
    for cell, rows in golden["priced_plans"].items():
        before = golden["moved_plans"].get(cell, golden["plans"][cell])
        assert [row[0] for row in rows] == [row[0] for row in before]
        ((row, old),) = [(row, old) for row, old in zip(rows, before) if row != old]
        assert row[0].strip().startswith(("ViewScan(", "TopK(", "Served"))
        assert row[1] == (0.000148 if cell.endswith("/ 2 shards") else 7.8e-05) != old[1]
        assert row[2] == old[2] or "one scan per shard" in row[2]


@pytest.mark.parametrize("literal", ["NULL", "TRUE", "FALSE", "'a\\b'", "'it''s'", "''''"])
def test_explain_spells_null_true_and_false_as_sql_literals(literal):
    rows = build().execute(f"EXPLAIN SELECT id FROM items WHERE tag = {literal}").rows
    assert f"Filter(tag = {literal})" in [row["node"].strip() for row in rows]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    recorded = {
        "plans": plan_table(),
        "refusals": refusal_table(),
        "moved_plans": {},
        "moved_refusals": {},
        "priced_plans": {},
    }
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded['plans'])} plans, {len(recorded['refusals'])} refusals")
