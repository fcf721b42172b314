"""Runs one workload: set-up, timed blocks, lifecycle tail, oracles, gates.

Everything the system is asked to do goes through its front doors —
``repro.connect``, SQL text, ``repro.net.SQLServer`` / ``repro.net.connect``
— so a refactor behind them cannot break the benchmark.  The few reads of
internal counters (maintainer statistics) are tolerant: a name that is gone
yields ``None`` and the number that needed it is reported as 0.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.exceptions import HazyError
from repro.features.base import FeatureFunction
from repro.persist.snapshot import decode_vector

from perf import calib, workloads
from perf.workloads import Inputs, Spec

OUT_DIR = Path(__file__).resolve().parent / "out"

VIEW_DDL = (
    "CREATE CLASSIFICATION VIEW v KEY id ENTITIES FROM entities KEY id "
    "EXAMPLES FROM examples KEY id LABEL label FEATURE FUNCTION {function} USING SVM"
)


class PreFeaturized(FeatureFunction):
    """Decodes the JSON-encoded sparse vector stored in the ``payload`` column."""

    name = "prefeaturized"
    norm_q = 1.0

    def compute_feature(self, row):
        return decode_vector(json.loads(row["payload"]))


@dataclass
class Tally:
    """What the client did: ops attempted and failed, bytes sent, bytes the system stored."""

    attempted: int = 0
    failed: int = 0
    user_bytes: int = 0
    disk_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{problem}: {count}")


# ---------------------------------------------------------------------------
# Building the system
# ---------------------------------------------------------------------------


def open_engine(spec: Spec, reference: bool = False, **options):
    """A fresh in-process stack with the two base tables and no rows.

    ``reference`` builds the oracle's stack instead: naive, lazy, main memory.
    ``options`` go to ``repro.connect`` as they are.
    """
    if reference:
        conn = repro.connect(architecture="mainmemory", strategy="naive", approach="lazy")
    else:
        pages = max(8, spec.entities // spec.pool_divisor) if spec.pool_divisor else None
        conn = repro.connect(
            architecture=spec.architecture,
            strategy="hazy",
            approach=spec.approach,
            buffer_pool_pages=pages,
            **options,
        )
    conn.engine.registry.register("prefeaturized", PreFeaturized)
    conn.execute("CREATE TABLE entities (id integer PRIMARY KEY, payload text)")
    conn.execute("CREATE TABLE examples (id integer, label integer)")
    return conn


def load_base(conn, entity_rows, examples) -> None:
    conn.executemany(workloads.ENTITY_INSERT_SQL, entity_rows)
    conn.executemany(workloads.UPDATE_SQL, examples)


def create_view(conn, spec: Spec) -> None:
    function = "tf_idf_bag_of_words" if spec.text else "prefeaturized"
    conn.execute(VIEW_DDL.format(function=function))


def serve_options(wal_dir: Path | None) -> str:
    return "shards = 2" + (f", wal = '{wal_dir}'" if wal_dir is not None else "")


@dataclass
class Stack:
    """One built system: the owning connection, and the client the workload talks through."""

    engine_conn: object
    client: object
    sql_server: object = None

    def close(self) -> None:
        if self.sql_server is not None:
            self.client.close()
            self.sql_server.close()
        self.engine_conn.close(timeout=60)


def build_stack(spec: Spec, inputs: Inputs, wal_dir: Path, tally: Tally | None = None) -> Stack:
    """The set-up a user waits for: tables, bulk load, warm examples, view, serving, wire."""
    conn = open_engine(spec)
    load_base(conn, inputs.entity_rows, inputs.warm)
    if tally is not None:
        tally.user_bytes += sum(map(workloads.row_bytes, inputs.entity_rows))
        tally.user_bytes += sum(map(workloads.row_bytes, inputs.warm))
    create_view(conn, spec)
    if spec.served:
        conn.execute(f"SERVE VIEW v WITH ({serve_options(wal_dir if spec.wal else None)})")
    if not spec.wire:
        return Stack(conn, conn)
    from repro.net import SQLServer, connect

    server = SQLServer(conn.engine).start()
    return Stack(conn, connect(server.host, server.port), server)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


#: Write ops: one statement whose parameters are a row the client sends.
WRITE_SQL = {
    "update": workloads.UPDATE_SQL,
    "write_visible": workloads.UPDATE_SQL,
    "entity_insert": workloads.ENTITY_INSERT_SQL,
    "entity_update": workloads.ENTITY_UPDATE_SQL,
    "entity_delete": workloads.ENTITY_DELETE_SQL,
}


def run_op(client, kind: str, parameters) -> bool:
    """One client op, its result consumed and checked; True when the answer is sane."""
    sql = WRITE_SQL.get(kind)
    if sql is not None and client.execute(sql, parameters).rowcount != 1:
        return False
    if kind in ("point_read", "write_visible"):
        return client.execute(workloads.POINT_SQL, parameters[:1]).scalar() in (-1, 1)
    if kind == "members_read":
        rows = client.execute(workloads.MEMBERS_SQL).fetchall()
        return not rows or "id" in rows[0]
    return True


def run_segment(client, kind: str, rows, tally: Tally, tracer=None) -> list[float]:
    """Run one op kind's ops back to back; returns the latencies of those that succeeded."""
    latencies = []
    for parameters in rows:
        span = tracer.begin(kind) if tracer is not None else None
        started = time.perf_counter()
        try:
            ok = run_op(client, kind, parameters)
        except HazyError:
            ok = False
        elapsed = time.perf_counter() - started
        if span is not None:
            tracer.end(span)
        tally.attempted += 1
        if ok:
            latencies.append(elapsed)
        else:
            tally.failed += 1
    if kind in WRITE_SQL:
        tally.user_bytes += sum(map(workloads.row_bytes, rows))
    return latencies


def run_blocks(client, spec: Spec, blocks, series, tally, tracer=None, between=None) -> list[float]:
    """The timed phase: every segment bracketed by calibration samples.

    ``between(index)`` runs background work after a block (the incremental
    checkpoint); its time is in no segment.  Returns the calibration samples.
    """
    samples = [calib.sample()]
    for index, block in enumerate(blocks):
        for kind, _ in spec.mix:
            latencies = run_segment(client, kind, block[kind], tally, tracer)
            samples.append(calib.sample())
            series[kind].add(latencies, samples[-2], samples[-1])
        if between is not None and between(index):
            samples.append(calib.sample())
    return samples


def timed(function) -> tuple[float, object]:
    """Run a one-shot phase from a collected heap; ``(seconds at reference speed, result)``."""
    gc.collect()
    before = calib.sample()
    started = time.perf_counter()
    result = function()
    elapsed = time.perf_counter() - started
    return elapsed * calib.factor(before, calib.sample()), result


# ---------------------------------------------------------------------------
# Reading the system's own counters
# ---------------------------------------------------------------------------


def system_metrics(conn) -> dict[str, float]:
    """``system.metrics`` through SQL, with per-connection names folded together."""
    out: dict[str, float] = {}
    for row in conn.execute("SELECT name, value FROM system.metrics").fetchall():
        parts = row["name"].split(".")
        if parts[0] == "connection":
            parts[1] = "*"
        name = ".".join(parts)
        out[name] = out.get(name, 0.0) + float(row["value"])
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


CORE_COUNTERS = (
    "updates",
    "reorganizations",
    "tuples_reclassified",
    "single_reads",
    "epsmap_hits",
    "simulated_update_seconds",
    "simulated_reorganization_seconds",
)


def core_counters(engine_conn) -> dict[str, float] | None:
    """Maintainer statistics summed over the live maintainers; None if they moved."""
    try:
        view = engine_conn.engine.view("v")
        server = view.server
        if server is None:
            maintainers = [view.maintainer]
        else:
            maintainers = [shard.maintainer for shard in server.shards.shards]
        totals = {name: 0.0 for name in CORE_COUNTERS}
        totals["disk_served"] = 0.0
        for maintainer in maintainers:
            for name in CORE_COUNTERS:
                totals[name] += getattr(maintainer.stats, name)
            totals["disk_served"] += getattr(maintainer.store, "disk_served", 0)
        return totals
    except (AttributeError, HazyError):
        return None


def band_tuples_now(engine_conn) -> float | None:
    """Tuples inside the water band right now (what a lazy read must still classify)."""
    try:
        return float(engine_conn.engine.view("v").maintainer.band_tuple_count())
    except (AttributeError, HazyError):
        return None


# ---------------------------------------------------------------------------
# Oracles and validity gates
# ---------------------------------------------------------------------------


def contents(conn) -> dict[int, int]:
    return {row["id"]: row["class"] for row in conn.execute(workloads.CONTENTS_SQL).fetchall()}


def top_margins(conn) -> list[tuple[int, float]]:
    return [(row["id"], row["margin"]) for row in conn.execute(workloads.TOP_SQL).fetchall()]


def mismatches(left: dict, right: dict) -> int:
    return sum(1 for key in left.keys() | right.keys() if left.get(key) != right.get(key))


def naive_reference(spec: Spec, inputs: Inputs) -> dict[int, int]:
    """Oracle (i): a from-scratch naive stack fed the same writes, in order.

    The naive strategy has no water band and no Skiing; its answer is
    ``sign(w.f - b)`` under the final model, the paper's invariant.  The
    lazy naive maintainer is used because the eager one reclassifies every
    entity on every example, which the run's time cap cannot afford; both
    give the same contents by construction.  Where the only writes are
    examples they all go in before the view is created (SGD sees the same
    sequence); entity churn is replayed after it, because tf-idf statistics
    depend on arrival order.
    """
    writes = [
        (WRITE_SQL[kind], parameters)
        for block in inputs.blocks
        for kind, _ in spec.mix
        if kind in WRITE_SQL
        for parameters in block[kind]
    ]
    writes += [(workloads.UPDATE_SQL, row) for row in inputs.tail + inputs.post_checkpoint]
    conn = open_engine(spec, reference=True)
    try:
        if spec.text:
            load_base(conn, inputs.entity_rows, inputs.warm)
            create_view(conn, spec)
            for sql, parameters in writes:
                conn.execute(sql, parameters)
        else:
            load_base(conn, inputs.entity_rows, inputs.warm + [row for _, row in writes])
            create_view(conn, spec)
        return contents(conn)
    finally:
        conn.close()


def wire_oracle(stack: Stack, inputs: Inputs, tally: Tally) -> None:
    """Oracle (iii): 200 statements over the wire answer as they do in process."""
    keys = [parameters for block in inputs.blocks for parameters in block["point_read"]][:195]
    wrong = sum(
        1
        for parameters in keys
        if stack.client.execute(workloads.POINT_SQL, parameters).fetchall()
        != stack.engine_conn.execute(workloads.POINT_SQL, parameters).fetchall()
    )
    for sql in (workloads.MEMBERS_SQL, workloads.CONTENTS_SQL, workloads.TOP_SQL) + (
        "SELECT COUNT(*) FROM v WHERE class = 1",
        "SELECT id FROM v WHERE class = -1",
    ):
        wire_rows = stack.client.execute(sql).fetchall()
        wrong += wire_rows != stack.engine_conn.execute(sql).fetchall()
    tally.attempted += len(keys) + 5
    tally.fail(wrong, "wire answers differ from in-process answers")


def validity(spec: Spec, inputs: Inputs, view: dict[int, int], core: dict | None) -> dict:
    """Is the workload doing real work?  A failed gate fails the run, not a metric."""
    stable = [entity_id for entity_id, _ in inputs.entity_rows[: spec.entities]]
    right = sum(1 for entity_id in stable if view.get(entity_id) == inputs.truth[entity_id])
    positives = sum(1 for entity_id in stable if inputs.truth[entity_id] == 1)
    accuracy = right / spec.entities
    majority = max(positives, spec.entities - positives) / spec.entities
    positive_fraction = sum(1 for label in view.values() if label == 1) / max(1, len(view))
    failures = []
    if accuracy <= majority:
        failures.append(f"accuracy {accuracy:.3f} does not beat majority rate {majority:.3f}")
    if not spec.text and not 0.10 <= positive_fraction <= 0.60:
        failures.append(f"positive fraction {positive_fraction:.3f} outside [0.10, 0.60]")
    if core is not None:
        if core["band_tuples_per_update"] < 1:
            failures.append("water band is empty: maintenance is a no-op")
        if spec.eager and core["reorganizations"] < 1:
            failures.append("eager workload saw no reorganization")
    return {
        "accuracy": accuracy,
        "positive_fraction": positive_fraction,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Lifecycle tail: serve with a WAL, update, checkpoint, crash, restore
# ---------------------------------------------------------------------------


def lifecycle_tail(spec: Spec, stack: Stack, inputs: Inputs, workdir: Path, tally: Tally) -> dict:
    """Every workload ends the same way; returns checkpoint/recovery timings and details."""
    client, engine_conn = stack.client, stack.engine_conn
    wal_dir = workdir / "wal"
    if not spec.wal:
        if spec.served:
            client.execute("STOP SERVING v")
        client.execute(f"SERVE VIEW v WITH ({serve_options(wal_dir)})")
    tally.attempted += len(inputs.tail) + len(inputs.post_checkpoint)
    for parameters in inputs.tail:
        client.execute(workloads.UPDATE_SQL, parameters)
    client.execute(workloads.POINT_SQL, inputs.tail[-1][:1]).scalar()
    tally.user_bytes += sum(map(workloads.row_bytes, inputs.tail + inputs.post_checkpoint))

    checkpoints, checkpoint_bytes = [], 0
    for repeat in range(spec.checkpoint_repeats):
        last_checkpoint = workdir / f"full-{repeat}"
        seconds, cursor = timed(
            lambda: client.execute(f"CHECKPOINT VIEW v TO '{last_checkpoint}'")
        )
        checkpoints.append(seconds)
        checkpoint_bytes = cursor.fetchall()[0]["bytes"]
    tally.disk_bytes += checkpoint_bytes  # the user takes one; the repeats are the benchmark's

    # Writes after the last checkpoint: only the WAL carries them across the crash.
    for parameters in inputs.post_checkpoint:
        client.execute(workloads.UPDATE_SQL, parameters)
    client.execute(workloads.POINT_SQL, inputs.post_checkpoint[-1][:1]).scalar()
    reference = (contents(client), top_margins(client))
    tally.disk_bytes += int(system_metrics(engine_conn).get("serve.v.wal.appended_bytes", 0))
    # The crash: copy the files as they are, with the server still running.
    crash = workdir / "crash"
    shutil.copytree(wal_dir, crash / "wal")
    shutil.copytree(last_checkpoint, crash / "checkpoint")
    entity_rows = [
        (row["id"], row["payload"])
        for row in engine_conn.execute("SELECT id, payload FROM entities").fetchall()
    ]
    examples = [
        (row["id"], row["label"])
        for row in engine_conn.execute("SELECT id, label FROM examples").fetchall()
    ]
    probe_key = inputs.post_checkpoint[-1][:1]
    probe_answer = reference[0][probe_key[0]]

    recoveries, wrong = [], 0
    for repeat in range(spec.restore_repeats):
        image = workdir / f"restore-{repeat}"
        shutil.copytree(crash, image)
        fresh = open_engine(spec)
        try:
            load_base(fresh, entity_rows, examples)

            def recover():
                fresh.execute(
                    f"RESTORE VIEW v FROM '{image / 'checkpoint'}' "
                    f"WITH (wal = '{image / 'wal'}')"
                )
                return fresh.execute(workloads.POINT_SQL, probe_key).scalar()

            seconds, answer = timed(recover)
            recoveries.append(seconds)
            restored = (contents(fresh), top_margins(fresh))
            wrong += (
                (answer != probe_answer)
                + mismatches(restored[0], reference[0])
                + (restored[1] != reference[1])
            )
        finally:
            fresh.close(timeout=60)
        shutil.rmtree(image)
    tally.attempted += spec.restore_repeats
    tally.fail(wrong, "restored view differs from the pre-crash view")
    return {
        "checkpoint_s": statistics.median(checkpoints),
        "recovery_s": statistics.median(recoveries),
        "checkpoint_bytes": checkpoint_bytes,
        "crash": crash,
        "final_contents": reference[0],
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """After set-up: collect what set-up left behind, then keep the survivors out of GC scans."""
    gc.collect()
    gc.freeze()


def pinned() -> bool:
    """Is this process bound to a single CPU?"""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) == 1
