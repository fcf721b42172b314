"""A statement's simulated seconds count every ledger it touches once.

``EXPLAIN ANALYZE`` splits a statement's cost per plan node, and a trace's
``execute`` span carries it whole, both by reading a probe over the ledgers
the statement's sources charge: the database's, then each view reader's
``ledgers()``, then (for DML) the ledgers of the views the written table
feeds.  An unserved on-disk or hybrid view's store charges the database's own
ledger, so those groups can name one ledger twice; the probe counts it once.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro
from repro.db.buffer_pool import IOStatistics, ledger_probe
from repro.db.sql.parser import parse

from tests.db.test_sql_serving import build_portal

ARCHITECTURES = ("mainmemory", "ondisk", "hybrid")
READS = {
    "view scan": "SELECT * FROM labeled_papers",
    "key join": "SELECT * FROM papers JOIN labeled_papers ON papers.id = labeled_papers.id",
}


def portal(architecture: str):
    """The 40-paper portal, unserved, and the distinct ledgers its reads charge:
    a main-memory store keeps its own, the others charge the database's."""
    db, engine, _ = build_portal(count=40, architecture=architecture)
    store = engine.view("labeled_papers").maintainer.store.stats
    return db, engine, [db.stats, store] if architecture == "mainmemory" else [db.stats]


def seconds(ledgers) -> float:
    return sum(ledger.simulated_seconds for ledger in ledgers)


def test_a_probe_counts_a_ledger_once_and_sums_each_group_in_order():
    database, store, shard = IOStatistics(), IOStatistics(), IOStatistics()
    database.charge(0.1)
    store.charge(0.2)
    shard.charge(0.3)
    probe = ledger_probe((database,), (database,), (store, shard, store), (shard, database))
    assert probe() == 0.1 + (0.2 + 0.3)
    store.charge(1.0)
    assert probe() == 0.1 + (1.2 + 0.3)
    assert ledger_probe()() == 0


@pytest.mark.parametrize("read", READS)
@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_explain_analyze_actuals_sum_to_what_the_ledgers_moved(architecture, read):
    db, _, ledgers = portal(architecture)
    before = seconds(ledgers)
    rows = db.execute(f"EXPLAIN ANALYZE {READS[read]}").rows
    moved = seconds(ledgers) - before
    assert moved > 0.0
    assert sum(row["actual_seconds"] for row in rows) == moved


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_traced_write_counts_its_maintenance_once(architecture):
    """The examples insert retrains the view inside the statement: its trace
    carries the view's maintenance, once, whichever ledger the store charges."""
    db, engine, ledgers = portal(architecture)
    conn = repro.connect(database=db, engine=engine)
    try:
        before = seconds(ledgers)
        conn.execute("INSERT INTO example_papers (id, label) VALUES (?, 'database')", (39,))
        moved = seconds(ledgers) - before
        trace = db.obs.traces.snapshot()[-1]
        (execute,) = [span for span in trace.spans() if span.name == "execute"]
        assert moved > 0.0
        assert execute.simulated_seconds == moved
    finally:
        conn.close()


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_cached_plan_follows_its_view_being_served_and_stopped(architecture):
    """``engine.serve`` moves no catalog version, so a connection keeps its
    prepared plan; the plan's probe and the statement's must still move to
    the shard ledgers the served reads charge, and back."""
    db, engine, ledgers = portal(architecture)
    conn = repro.connect(database=db, engine=engine)
    sql = "SELECT class FROM labeled_papers WHERE id = ?"
    try:
        for served in (False, True, False):
            charged = ledgers
            if served:
                charged = [*ledgers, *engine.serve("labeled_papers", shards=2).ledgers()]
            elif engine.view("labeled_papers").server is not None:
                engine.stop_serving("labeled_papers")
            before = seconds(charged)
            conn.execute(sql, (7,)).fetchall()
            moved = seconds(charged) - before
            trace = db.obs.traces.snapshot()[-1]
            (execute,) = [span for span in trace.spans() if span.name == "execute"]
            assert moved > 0.0
            assert execute.simulated_seconds == pytest.approx(moved, rel=1e-9), served
    finally:
        conn.close()


def test_a_cached_plan_does_not_keep_a_stopped_server_alive():
    """The plan keeps its probe while each view's reader stays the same, but
    holds those readers weakly: after ``STOP SERVING`` the server, its shards
    and their stores are collected though the plan that read them is kept."""
    db, engine, _ = portal("mainmemory")
    statement = parse("SELECT class FROM labeled_papers WHERE id = ?")
    plan = db.executor.plan_for(statement)
    server = weakref.ref(engine.serve("labeled_papers", shards=2))
    served = db.executor.execute(statement, (7,), plan=plan).rows
    engine.stop_serving("labeled_papers")
    gc.collect()
    assert server() is None
    assert db.executor.execute(statement, (7,), plan=plan).rows == served
