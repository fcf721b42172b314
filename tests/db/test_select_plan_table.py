"""Every SELECT shape's EXPLAIN rows and every planner refusal, pinned.

The ``plans`` table of ``tests/golden.py`` (``select_plan_golden.json``, its
current cells and the log of every move): the ``(node, estimated_seconds,
detail)`` rows ``EXPLAIN`` prints for each read shape over one base table, a
classification view — unserved and served on 2 shards — and the joins between
them, and every planner refusal as ``refused / <name>``: ``[class, message,
position, token]``.  Beside the exact compare, the invariants the moves
established hold on every run, over the plan trees or the current cells: serving
changes a plan's names, details and estimates, never its shape; no ``Filter``
re-checks a conjunct its child answers (a view read's ``class = x`` or key);
an unserved view joined on its key reads the probe keys in one batch, which
prints no estimate; every scan-shaped view read is priced ``sum(overhead +
scan)`` over the stores it reads; a join's ``margin`` refusal says what
``FROM v``'s does; and EXPLAIN spells a literal as SQL does.
"""

from __future__ import annotations

import pytest

from repro.core.engine import HazyEngine
from repro.db.costmodel import CostModel
from repro.db.database import Database
from repro.db.sql.parser import parse
from repro.db.sql.plan import Filter, TopK, ViewMembers, ViewRangeRead, ViewScan
from repro.db.sql.planner import SelectPlan
from repro.exceptions import SQLExecutionError
from repro.workloads.synth_text import SparseCorpusGenerator
from tests import golden

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
    """``{"refused / <refusal>": [class, message, position, token]}``."""
    db = build()
    table = {}
    for refusal, sql in REFUSED.items():
        with pytest.raises(SQLExecutionError) as excinfo:
            db.execute(sql)
        error = excinfo.value
        cell = [type(error).__name__, str(error), error.position, error.token]
        table[f"refused / {refusal}"] = cell
    return table


def golden_table() -> dict[str, list]:
    """The ``plans`` golden table: every plan, then every refusal."""
    return {**plan_table(), **refusal_table()}


CELLS = [f"{read} / unserved" for read in TABLE_READS]
CELLS += [f"{read} / {state}" for state in STATES for read in VIEW_READS]
RECORDED = golden.cells("plans")


def test_the_recorded_tables_cover_every_cell():
    assert list(RECORDED) == CELLS + [f"refused / {refusal}" for refusal in REFUSED]


@pytest.fixture(scope="module")
def plans():
    return plan_table()


@pytest.fixture(scope="module")
def refusals():
    return refusal_table()


@pytest.mark.parametrize("cell", CELLS)
def test_explain_rows_equal_the_recorded_ones(plans, cell):
    assert golden.bits(plans[cell]) == golden.bits(RECORDED[cell])


@pytest.mark.parametrize("refusal", REFUSED)
def test_refusals_equal_the_recorded_ones(refusals, refusal):
    cell = f"refused / {refusal}"
    assert golden.bits(refusals[cell]) == golden.bits(RECORDED[cell])


def plan_trees() -> dict[str, tuple[dict[str, SelectPlan], float]]:
    """``{state: ({read: plan}, scan estimate)}`` for every SELECT above."""
    db = build()
    trees = {}
    for state in STATES:
        if state != "unserved":
            db.execute("SERVE VIEW labeled WITH (shards = 2)")
        plans = {
            read: db.executor.plan_select(parse(sql))
            for read, sql in {**TABLE_READS, **VIEW_READS}.items()
        }
        trees[state] = plans, scan_estimate(db.catalog.classification_view("labeled"))
    db.execute("STOP SERVING labeled")
    return trees


@pytest.fixture(scope="module")
def trees():
    return plan_trees()


@pytest.mark.parametrize("read", [*TABLE_READS, *VIEW_READS])
def test_serving_never_changes_a_plans_shape(trees, read):
    """Serving changes a plan's names, details and estimates, never its nodes."""
    shapes = [
        [(depth, type(node).__name__) for depth, node in trees[state][0][read].root.walk()]
        for state in STATES
    ]
    assert shapes[0] == shapes[1]


def rechecked_conjuncts(plan: SelectPlan) -> list[str]:
    """The conjuncts a ``Filter`` of ``plan`` re-checks though its child answers them."""
    return [
        predicate.render()
        for _, node in plan.root.walk()
        if isinstance(node, Filter)
        for predicate in node.predicates
        if predicate in node.children[0].answered
    ]


@pytest.mark.parametrize("read", [*TABLE_READS, *VIEW_READS])
def test_no_filter_re_checks_a_conjunct_its_child_answers(trees, read):
    for state in STATES:
        assert not rechecked_conjuncts(trees[state][0][read]), state


def scan_estimate(view) -> float:
    """``sum(overhead + scan)`` over the stores a scan-shaped read of ``view`` reads."""
    server = view.server
    if server is None:
        stores = [view.maintainer.store]
    else:
        stores = [shard.maintainer.store for shard in server.shards.shards]
    return sum(store.cost_model.statement_overhead + store.scan_cost_estimate() for store in stores)


def scan_shaped(plan: SelectPlan) -> list:
    """The view reads of ``plan`` that scan every store: contents, All Members,
    a key range and the fused top-k."""

    def scans(node) -> bool:
        fused_top_k = isinstance(node, TopK) and node.view is not None
        return fused_top_k or isinstance(node, (ViewScan, ViewMembers, ViewRangeRead))

    return [node for _, node in plan.root.walk() if scans(node)]


@pytest.mark.parametrize("state", STATES)
def test_every_scan_shaped_view_read_is_priced_over_the_stores_it_reads(trees, state):
    plans, expected = trees[state]
    priced = [node.estimated_seconds for plan in plans.values() for node in scan_shaped(plan)]
    assert len(priced) >= 10 and set(priced) == {expected}


KEY_JOINS = [read for read, sql in VIEW_READS.items() if JOIN in sql and "WHERE" not in sql]


def test_a_view_joined_on_its_key_reads_the_probe_keys_in_one_batch(plans):
    """Unserved as served; the batch prints no estimate."""
    assert len(KEY_JOINS) == 7
    for cell in [f"{read} / {state}" for read in KEY_JOINS for state in STATES]:
        batch = [row for row in plans[cell] if row[0].strip().endswith("(labeled, batch)")]
        assert [row[1] for row in batch] == [None], cell
        assert batch[0][0].strip().startswith(("ViewPointRead(", "ServedPointRead(")), cell


def test_a_joins_margin_refusal_says_what_from_v_says(refusals):
    """Its message is ``FROM v``'s (its class, position and token are the recorded cell's)."""
    single_source = refusals["refused / margin in SELECT list"][1]
    joins = [cell for cell in refusals if cell.startswith("refused / join") and "margin" in cell]
    assert len(joins) == 5
    for cell in joins:
        assert refusals[cell][1] == single_source, cell


@pytest.mark.parametrize("literal", ["NULL", "TRUE", "FALSE", "'a\\b'", "'it''s'", "''''"])
def test_explain_spells_null_true_and_false_as_sql_literals(literal):
    rows = build().execute(f"EXPLAIN SELECT id FROM items WHERE tag = {literal}").rows
    assert f"Filter(tag = {literal})" in [row["node"].strip() for row in rows]
