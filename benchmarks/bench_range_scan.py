"""Pushed-down range predicates vs post-filtered scatter/gather: the plan gate.

``SELECT id FROM v WHERE class = 1 AND id >= k`` used to be answered by
materializing the *whole* served view (scatter/gather ``contents()`` — one
statement and one scan of every stored tuple per shard) and post-filtering
the rows client-side.  The plan-first query layer pushes the predicate into
the serving layer as a real shard operator: every shard runs
``read_range`` over its own eps-clustered store, applying the key filter
before any classification work, under one coherent epoch.

The gate enforced here: the pushed-down read is **>= 2x cheaper** in
simulated seconds *net of statement dispatch* than the post-filter path, with
identical rows.  Net, because what pushdown saves is the tuples it never reads
or classifies: both paths dispatch a statement per shard they touch, and that
charge (the ledgers' ``statement`` detail) says nothing about the access path.
The total ratio is reported beside it (``speedup``).  Both paths run through
plain SQL on the same served view, so the comparison is end-to-end (parser,
planner, plan walk, server, shards).
"""

from __future__ import annotations

import json

import repro
from repro.bench.reporting import format_table
from repro.features.base import FeatureFunction
from repro.persist.snapshot import decode_vector, encode_vector
from repro.workloads import dblife_like

ENTITIES = 800
EXAMPLES = 120
SHARD_GRID = (2, 4)
MIN_SPEEDUP = 2.0


class PreFeaturizedColumn(FeatureFunction):
    """Decode a JSON-encoded sparse vector stored in the ``features`` column."""

    name = "prefeaturized"
    norm_q = 1.0

    def compute_feature(self, row):
        return decode_vector(json.loads(row["features"]))


def _build_portal(dataset):
    """SQL-only portal: base tables + CREATE CLASSIFICATION VIEW over the dataset."""
    subset = dataset.entities[:ENTITIES]
    conn = repro.connect(architecture="mainmemory", strategy="hazy", approach="eager")
    conn.engine.registry.register("prefeaturized", PreFeaturizedColumn)
    conn.execute("CREATE TABLE entities (id integer PRIMARY KEY, features text)")
    conn.execute("CREATE TABLE examples (id integer, label integer)")
    conn.executemany(
        "INSERT INTO entities (id, features) VALUES (?, ?)",
        [
            (entity_id, json.dumps(encode_vector(features)))
            for entity_id, features in subset
        ],
    )
    conn.executemany(
        "INSERT INTO examples (id, label) VALUES (?, ?)",
        [
            (entity_id, dataset.labels[entity_id])
            for entity_id, _ in subset[:EXAMPLES]
        ],
    )
    conn.execute(
        "CREATE CLASSIFICATION VIEW labeled KEY id "
        "ENTITIES FROM entities KEY id "
        "EXAMPLES FROM examples KEY id LABEL label "
        "FEATURE FUNCTION prefeaturized USING SVM"
    )
    return conn


def net_of_statements(server) -> float:
    """Simulated seconds on the server's shard ledgers, less their ``statement`` charges."""
    return sum(
        ledger.simulated_seconds - ledger.detail.get("statement", 0.0)
        for ledger in server.ledgers()
    )


def run_range_scan_experiment(num_shards: int, dataset=None) -> dict:
    """One served view; measure pushed-down vs post-filtered range read."""
    dataset = dataset if dataset is not None else dblife_like(scale=0.5, seed=1)
    conn = _build_portal(dataset)
    try:
        conn.execute(f"SERVE VIEW labeled WITH (shards = {num_shards})")
        server = conn.engine.view("labeled").server
        server.flush()
        members = sorted(
            row["id"]
            for row in conn.execute("SELECT id FROM labeled WHERE class = 1").fetchall()
        )
        assert members, "the warm model must produce a non-empty positive class"
        low = members[len(members) // 2]

        # Pushed down: the planner routes this through ServedRangeScan.
        start, start_net = server.shards.simulated_seconds(), net_of_statements(server)
        pushed_rows = conn.execute(
            "SELECT id FROM labeled WHERE class = 1 AND id >= ? ORDER BY id", (low,)
        ).fetchall()
        pushed_cost = server.shards.simulated_seconds() - start
        pushed_net = net_of_statements(server) - start_net

        # The seed's access path: materialize the full view, filter client-side.
        start, start_net = server.shards.simulated_seconds(), net_of_statements(server)
        everything = conn.execute("SELECT * FROM labeled").fetchall()
        filtered = sorted(
            row["id"]
            for row in everything
            if row["class"] == 1 and row["id"] >= low
        )
        post_cost = server.shards.simulated_seconds() - start
        post_net = net_of_statements(server) - start_net

        pushed_ids = [row["id"] for row in pushed_rows]
        identical = pushed_ids == filtered
        speedup = post_cost / pushed_cost if pushed_cost > 0 else float("inf")
        net_speedup = post_net / pushed_net if pushed_net > 0 else float("inf")
        conn.execute("STOP SERVING labeled")
        return {
            "shards": num_shards,
            "entities": len(everything),
            "in_class": len(members),
            "in_range": len(pushed_ids),
            "pushed_simulated_s": round(pushed_cost, 6),
            "postfilter_simulated_s": round(post_cost, 6),
            "speedup": round(speedup, 2),
            "pushed_net_s": round(pushed_net, 6),
            "postfilter_net_s": round(post_net, 6),
            "net_speedup": round(net_speedup, 2),
            "identical": int(identical),
            "min_speedup": MIN_SPEEDUP,
        }
    finally:
        conn.close()


def build_table(dataset=None) -> list[dict]:
    dataset = dataset if dataset is not None else dblife_like(scale=0.5, seed=1)
    return [run_range_scan_experiment(shards, dataset) for shards in SHARD_GRID]


def test_range_scan_gate(benchmark):
    """The gate: >= 2x cheaper than post-filtering net of statements, byte-identical rows."""
    dataset = dblife_like(scale=0.5, seed=1)
    rows = benchmark.pedantic(lambda: build_table(dataset), rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows, title="Pushed-down range scan vs post-filtered scatter/gather"
        )
    )
    for row in rows:
        assert row["identical"] == 1, f"shards={row['shards']}: rows differ"
        assert row["net_speedup"] >= MIN_SPEEDUP, (
            f"shards={row['shards']}: pushed-down range scan speedup net of statements "
            f"{row['net_speedup']}x is below the {MIN_SPEEDUP}x gate"
        )
