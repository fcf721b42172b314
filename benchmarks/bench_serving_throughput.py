"""Serving throughput: concurrent SQL reads vs serialized direct-engine calls.

Drives the same mixed read/write workload two ways:

* **direct-serial** — the seed repo's only access path: one thread calling
  ``maintainer.read_single`` / absorbing examples inline, one statement
  dispatch per read;
* **served** — the declarative front door: a view created with ``CREATE
  CLASSIFICATION VIEW``, put behind the server with ``SERVE VIEW``, and
  hammered by ≥4 concurrent :func:`repro.connect` connections issuing plain
  ``SELECT class FROM v WHERE id = ?`` statements (routed through the request
  batcher) while writer connections stream the same training examples as SQL
  ``INSERT``s through the trigger → queue → batched-apply pipeline.

The figure of merit is *simulated* read throughput (reads per simulated
second of storage/CPU work, the same currency as every other figure in
EXPERIMENTS.md); wall-clock throughput is reported alongside.  The batcher
amortizes the per-statement overhead that Figure 5 shows capping read rates,
so the served configuration must clear **2x** the serialized baseline — the
test enforces it *through the SQL read path*, and also re-verifies that every
concurrent SQL read was snapshot-consistent with the model of the epoch its
session observed.
"""

from __future__ import annotations

import json
import threading
import time

import repro
from repro.bench.harness import build_maintained_view
from repro.bench.reporting import format_table
from repro.features.base import FeatureFunction
from repro.persist.snapshot import decode_vector, encode_vector
from repro.workloads import read_trace, update_trace

READER_THREADS = 6
WRITER_THREADS = 2
READS = 6000
WRITES = 120
WARMUP = 400
NUM_SHARDS = 4


class PreFeaturizedColumn(FeatureFunction):
    """Decodes a JSON-encoded sparse vector stored in the ``features`` column.

    The benchmark datasets are already featurized; this lets them flow through
    the SQL surface (entity rows in a real table, CREATE CLASSIFICATION VIEW)
    while classifying on exactly the same vectors as the direct baseline.
    """

    name = "prefeaturized"
    norm_q = 1.0

    def compute_feature(self, row):
        return decode_vector(json.loads(row["features"]))


def _workload(dataset, seed=7):
    trace = update_trace(dataset, warmup=WARMUP, timed=WRITES, seed=seed)
    ids = read_trace(dataset, READS, seed=seed + 1)
    return trace, ids


def run_direct_serial(dataset):
    """Baseline: serialized single-statement reads interleaved with updates."""
    trace, ids = _workload(dataset)
    view = build_maintained_view(
        dataset, "mainmemory", "hazy", "eager", warm_examples=trace.warm_examples()
    )
    timed = list(trace.timed_examples())
    reads_per_write = max(1, len(ids) // max(1, len(timed)))
    maintainer = view.maintainer
    read_cost_start = maintainer.stats.simulated_read_seconds
    start_wall = time.perf_counter()
    cursor = 0
    for index, entity_id in enumerate(ids):
        if cursor < len(timed) and index % reads_per_write == 0:
            view.absorb(timed[cursor])
            cursor += 1
        maintainer.read_single(entity_id)
    while cursor < len(timed):
        view.absorb(timed[cursor])
        cursor += 1
    wall = time.perf_counter() - start_wall
    read_seconds = maintainer.stats.simulated_read_seconds - read_cost_start
    return {
        "cell": "direct-serial",
        "reads": len(ids),
        "writes": len(timed),
        "sim_reads_per_s": round(len(ids) / read_seconds, 1),
        "wall_reads_per_s": round(len(ids) / wall, 1),
        "avg_read_batch": 1.0,
        "cache_hits": 0,
    }


def _sql_portal(dataset, warm_examples):
    """Build the SQL-only portal: base tables, view DDL, warm examples."""
    conn = repro.connect(architecture="mainmemory", strategy="hazy", approach="eager")
    conn.engine.registry.register("prefeaturized", PreFeaturizedColumn)
    conn.execute("CREATE TABLE entities (id integer PRIMARY KEY, features text)")
    conn.execute("CREATE TABLE examples (id integer, label integer)")
    conn.executemany(
        "INSERT INTO entities (id, features) VALUES (?, ?)",
        [
            (entity_id, json.dumps(encode_vector(features)))
            for entity_id, features in dataset.entities
        ],
    )
    # Warm examples land before the view DDL, so — exactly as in the direct
    # baseline — the initial clustering reflects the warm model.
    conn.executemany(
        "INSERT INTO examples (id, label) VALUES (?, ?)",
        [(example.entity_id, example.label) for example in warm_examples],
    )
    conn.execute(
        "CREATE CLASSIFICATION VIEW served_entities KEY id "
        "ENTITIES FROM entities KEY id "
        "EXAMPLES FROM examples KEY id LABEL label "
        "FEATURE FUNCTION prefeaturized USING SVM"
    )
    return conn


def run_served(dataset, check_consistency: bool = False):
    """≥4 concurrent SQL readers through the batcher + SQL writers through the pipeline."""
    trace, ids = _workload(dataset)
    conn = _sql_portal(dataset, trace.warm_examples())
    conn.execute(f"SERVE VIEW served_entities WITH (shards = {NUM_SHARDS})")
    server = conn.engine.view("served_entities").server
    if check_consistency:
        # The server keeps only its newest model, so the check notes each
        # epoch's as it is published (under the write lock).
        models = {server.epoch: server.published.model}
        publish_epoch = server.publish_epoch

        def recording(*args, **kwargs):
            epoch = publish_epoch(*args, **kwargs)
            models[epoch] = server.published.model
            return epoch

        server.publish_epoch = recording
    timed = list(trace.timed_examples())
    chunks = [ids[i::READER_THREADS] for i in range(READER_THREADS)]
    write_chunks = [timed[i::WRITER_THREADS] for i in range(WRITER_THREADS)]
    observations: list[tuple[object, int, int]] = []
    observations_lock = threading.Lock()
    errors: list[BaseException] = []

    def reader(chunk):
        # One connection per client thread: its own monotonic session timeline.
        client = repro.connect(engine=conn.engine)
        try:
            local = []
            session = None
            for entity_id in chunk:
                label = client.execute(
                    "SELECT class FROM served_entities WHERE id = ?", (entity_id,)
                ).scalar()
                if check_consistency:
                    if session is None:
                        session = client.session("served_entities")
                    local.append((entity_id, label, session.last_epoch))
            if check_consistency:
                with observations_lock:
                    observations.extend(local)
        except BaseException as error:  # pragma: no cover
            errors.append(error)
        finally:
            client.close()

    def writer(chunk):
        client = repro.connect(engine=conn.engine)
        try:
            for example in chunk:
                client.execute(
                    "INSERT INTO examples (id, label) VALUES (?, ?)",
                    (example.entity_id, example.label),
                )
        except BaseException as error:  # pragma: no cover
            errors.append(error)
        finally:
            client.close()

    threads = [threading.Thread(target=reader, args=(chunk,)) for chunk in chunks]
    threads += [threading.Thread(target=writer, args=(chunk,)) for chunk in write_chunks]
    start_wall = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.flush(timeout=120)
    wall = time.perf_counter() - start_wall
    assert not errors, errors
    read_seconds = server.simulated_read_seconds()
    row = {
        "cell": f"served-{NUM_SHARDS}shards",
        "reads": len(ids),
        "writes": len(timed),
        "sim_reads_per_s": round(len(ids) / read_seconds, 1),
        "wall_reads_per_s": round(len(ids) / wall, 1),
        "avg_read_batch": round(server.batcher.stats()["avg_batch"], 2),
        "cache_hits": server.stats()["cache.hits_total"],
    }
    consistency = None
    if check_consistency:
        features = {entity_id: f for entity_id, f in dataset.entities}
        consistency = all(
            label == models[epoch].predict(features[entity_id])
            for entity_id, label, epoch in observations
            if epoch in models
        )
        checked = sum(1 for _, _, epoch in observations if epoch in models)
        row["snapshot_consistent"] = consistency and checked == len(observations)
    conn.close(timeout=60)
    return row


def build_table(dataset):
    direct = run_direct_serial(dataset)
    served = run_served(dataset)
    speedup = served["sim_reads_per_s"] / max(1e-9, direct["sim_reads_per_s"])
    served["read_speedup_vs_direct"] = round(speedup, 2)
    direct["read_speedup_vs_direct"] = 1.0
    return [direct, served]


def test_serving_throughput(dblife_dataset, benchmark):
    rows = benchmark.pedantic(lambda: build_table(dblife_dataset), rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows,
            title=(
                f"Serving: {READER_THREADS} readers + {WRITER_THREADS} writers vs "
                "serialized direct engine"
            ),
        )
    )
    direct, served = rows
    assert served["read_speedup_vs_direct"] >= 2.0, (
        "batched+cached serving must at least double serialized read throughput"
    )


def test_served_reads_snapshot_consistent_under_maintenance(dblife_dataset):
    row = run_served(dblife_dataset, check_consistency=True)
    assert row["snapshot_consistent"] is True
