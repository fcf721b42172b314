"""The EXPLAIN rows of the five classification-view reads, pinned.

Every ``(node, estimated_seconds, detail)`` row ``EXPLAIN`` prints for the
point, All Members, key-range, contents and ranked read, against an unserved
view and against the same view served on 2 shards, on a fixed corpus, for
Hazy-MM eager and hybrid lazy: the ``explain`` table of ``tests/golden.py``
(``view_explain_golden.json``, its current cells and the log of every move).
Beside the exact compare, the invariants the moves established hold on every
run: a view read answers the conjuncts it names, so no ``Filter`` above it
re-checks them; every scan-shaped read is priced ``sum(overhead + scan)`` over
the stores it reads, contents as All Members; and every row has an estimate.
"""

from __future__ import annotations

import pytest

from repro.db.sql.parser import parse
from tests import golden
from tests.db.test_select_plan_table import rechecked_conjuncts, scan_estimate, scan_shaped
from tests.db.test_sql_serving import build_portal

READS = {
    "point": "SELECT class FROM labeled_papers WHERE id = 1",
    "members": "SELECT id FROM labeled_papers WHERE class = 'database'",
    "range": "SELECT id FROM labeled_papers WHERE class = 'database' AND id >= 5",
    "contents": "SELECT * FROM labeled_papers",
    "ranked": "SELECT id FROM labeled_papers ORDER BY margin DESC LIMIT 4",
}
CONFIGURATIONS = {
    "mainmemory/eager": dict(architecture="mainmemory", approach="eager"),
    "hybrid/lazy": dict(architecture="hybrid", approach="lazy"),
}
STATES = ("unserved", "2 shards")
CELLS = [f"{c} / {r} / {s}" for c in CONFIGURATIONS for s in STATES for r in READS]
RECORDED = golden.cells("explain")


def portal_states():
    """``(configuration, state, db, view)``: each configuration's portal,
    unserved and then served on 2 shards."""
    for configuration, engine_options in CONFIGURATIONS.items():
        db, engine, _ = build_portal(count=40, **engine_options)
        for state in STATES:
            if state != "unserved":
                db.execute("SERVE VIEW labeled_papers WITH (shards = 2)")
            yield configuration, state, db, engine.view("labeled_papers")
        db.execute("STOP SERVING labeled_papers")


def golden_table() -> dict[str, list[list]]:
    """``{"<configuration> / <read> / <state>": [[node, estimated_seconds, detail], ...]}``."""
    return {
        f"{configuration} / {read} / {state}": [
            [row["node"], row["estimated_seconds"], row["detail"]]
            for row in db.execute(f"EXPLAIN {sql}").rows
        ]
        for configuration, state, db, _ in portal_states()
        for read, sql in READS.items()
    }


def test_the_recorded_table_covers_every_cell():
    assert list(RECORDED) == CELLS


@pytest.fixture(scope="module")
def table():
    return golden_table()


@pytest.mark.parametrize("cell", CELLS)
def test_explain_rows_equal_the_recorded_ones(table, cell):
    assert golden.bits(table[cell]) == golden.bits(RECORDED[cell])


@pytest.fixture(scope="module")
def trees():
    """``{(configuration, state): ({read: plan}, scan estimate)}``."""
    return {
        (configuration, state): (
            {read: db.executor.plan_select(parse(sql)) for read, sql in READS.items()},
            scan_estimate(view),
        )
        for configuration, state, db, view in portal_states()
    }


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_no_filter_re_checks_a_conjunct_its_child_answers(trees, configuration):
    for state in STATES:
        for read, plan in trees[(configuration, state)][0].items():
            assert not rechecked_conjuncts(plan), (state, read)


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_every_scan_shaped_read_is_priced_over_the_stores_it_reads(trees, table, configuration):
    """``sum(overhead + scan)`` over the view's stores, contents as All Members;
    and every row has an estimate (the unserved fused top-k included)."""
    for state in STATES:
        plans, expected = trees[(configuration, state)]
        for read, plan in plans.items():
            scans = [node.estimated_seconds for node in scan_shaped(plan)]
            assert scans == ([] if read == "point" else [expected]), (state, read)
        cell = f"{configuration} / {{}} / {state}"
        assert table[cell.format("contents")][-1][1] == table[cell.format("members")][-1][1]
    rows = [row for cell in CELLS if cell.startswith(configuration) for row in table[cell]]
    assert all(row[1] is not None for row in rows)
