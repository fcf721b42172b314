"""Per-layer probes: public calls of one layer, timed with the workload's inputs.

Run after the traced phase, on the workload's own engine, so sizes (model
width, entity count, row length) are the workload's.  Each probe is
calibrated like a segment.  A probe that raises — a name moved in a later
refactor, and later changes may not edit ``perf/`` — reports 0 and is named
under ``missing``; it never fails the run.
"""

from __future__ import annotations

import os
import socket
import statistics
import threading
import time

from perf import calib, harness, tracing, workloads

REPEATS = 200


def lookup(dotted: str):
    """The object a dotted name refers to; AttributeError when the program dropped it."""
    target = tracing.resolve(dotted)
    if target is None:
        raise AttributeError(f"{dotted} no longer exists")
    return getattr(*target)


def time_calls(function, arguments) -> float:
    """Calibrated median seconds of ``function(*args)`` over ``arguments``."""
    before = calib.sample()
    latencies = []
    for args in arguments:
        started = time.perf_counter()
        function(*args)
        latencies.append(time.perf_counter() - started)
    return statistics.median(latencies) * calib.factor(before, calib.sample())


class Probes:
    """Collects probe values; a failing probe is recorded, not raised."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.missing: list[str] = []

    def run(self, names: tuple[str, ...], probe) -> None:
        """``probe()`` returns one value per name."""
        try:
            values = probe()
        except Exception as error:  # noqa: BLE001 - boundary: the run must go on
            self.missing.append(f"{'/'.join(names)}: {type(error).__name__}: {error}")
            values = (0.0,) * len(names)
        self.values.update(zip(names, values))


def in_process(probes: Probes, conn, spec, inputs) -> None:
    """db, connection, features, linalg: one thread, the engine's own connection."""
    keys = [(entity_id,) for entity_id, _ in inputs.entity_rows[:REPEATS]]
    rows = [
        {"id": entity_id, "payload": payload}
        for entity_id, payload in inputs.entity_rows[:REPEATS]
    ]
    texts = (
        workloads.UPDATE_SQL,
        workloads.POINT_SQL,
        workloads.MEMBERS_SQL,
        workloads.CONTENTS_SQL,
    )

    def parse_and_plan():
        parse = lookup("repro.db.sql.parser.parse")
        parse_s = time_calls(parse, [(text,) for text in texts] * 10)
        selects = [(parse(text),) for text in texts[1:]] * 10
        return parse_s * 1e6, time_calls(conn.database.executor.plan_select, selects) * 1e6

    probes.run(("db.parse_us", "db.plan_us"), parse_and_plan)

    def point_read():
        prepared = conn.prepare(workloads.POINT_SQL)
        execute = conn.database.executor.execute
        pages_before = conn.database.stats.page_reads
        inner = time_calls(
            lambda *key: execute(prepared.statement, key, None, plan=prepared.plan), keys
        )
        pages = (conn.database.stats.page_reads - pages_before) / len(keys)
        outer = time_calls(lambda *key: conn.execute(workloads.POINT_SQL, key).scalar(), keys)
        return inner * 1e6, max(0.0, outer - inner) * 1e6, pages

    probes.run(
        (
            "db.execute_point_us",
            "connection.execute_overhead_us",
            "db.pages_read_per_point_read",
        ),
        point_read,
    )

    def insert_row():
        conn.execute("CREATE TABLE perf_scratch (id integer, label integer)")
        sql = "INSERT INTO perf_scratch (id, label) VALUES (?, ?)"
        rows_in = [(key[0], 1) for key in keys]
        return (time_calls(lambda *row: conn.execute(sql, row), rows_in) * 1e6,)

    probes.run(("db.insert_row_us",), insert_row)

    def featurize():
        function = conn.engine.view("v").feature_function
        own = time_calls(function.compute_feature, [(row,) for row in rows]) * 1e6
        if spec.text:
            return own, 0.0
        decode = harness.PreFeaturized().compute_feature
        return own, time_calls(decode, [(row,) for row in rows]) * 1e6

    probes.run(("features.featurize_us", "features.json_decode_us"), featurize)

    def vectors_and_model():
        view = conn.engine.view("v")
        return [view.feature_function.compute_feature(row) for row in rows], view.model

    def margin():
        vectors, model = vectors_and_model()
        return (time_calls(model.margin, [(vector,) for vector in vectors]) * 1e6,)

    probes.run(("linalg.margin_us",), margin)

    def batch_margins():
        import numpy

        vectors, model = vectors_and_model()
        dense = numpy.zeros(1 + max(index for index, _ in model.weights.items()))
        for index, value in model.weights.items():
            dense[index] = value
        batch = lookup("repro.linalg.kernels.batch_margins")
        whole = time_calls(batch, [(vectors, dense, model.bias)] * 15)
        return (whole * 1e6 / len(vectors),)

    probes.run(("linalg.batch_margins_us_per_row",), batch_margins)


def served(probes: Probes, conn, inputs) -> None:
    """serve: the ViewServer's own read and write entry points, no SQL."""
    keys = [(entity_id,) for entity_id, _ in inputs.entity_rows[:REPEATS]]

    def reads():
        server = conn.engine.view("v").server
        label_of = time_calls(server.label_of, keys) * 1e6
        members = time_calls(server.all_members, [(1,)] * 10) * 1e3
        return label_of, members

    probes.run(("serve.label_of_us", "serve.all_members_ms"), reads)

    def flush():
        server = conn.engine.view("v").server
        rounds = []
        for start in range(0, 60, 12):  # each flush has a dozen writes queued ahead of it
            for parameters in inputs.warm[start : start + 12]:
                conn.execute(workloads.UPDATE_SQL, parameters)
            rounds.append(time_calls(server.flush, [()]))
        return (statistics.median(rounds) * 1e3,)

    probes.run(("serve.flush_ms",), flush)

    def two_readers():
        server = conn.engine.view("v").server
        each = 1500

        def reader():
            try:  # this thread only: the two readers may use every CPU
                os.sched_setaffinity(0, range(os.cpu_count() or 1))
            except (AttributeError, OSError):
                pass
            for index in range(each):
                server.label_of(keys[index % len(keys)][0])

        threads = [threading.Thread(target=reader) for _ in range(2)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        elapsed = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            raise TimeoutError("reader threads did not finish")
        return (2 * each / elapsed,)

    probes.run(("serve.concurrent2_reads_per_s",), two_readers)


def wire(probes: Probes, stack: harness.Stack, inputs) -> None:
    """net: frame codec over a socket pair; ping, admission and overhead on a live server."""
    keys = [(entity_id,) for entity_id, _ in inputs.entity_rows[:REPEATS]]

    def codec():
        write_frame = lookup("repro.net.protocol.write_frame")
        read_frame = lookup("repro.net.protocol.read_frame")
        point = {"rows": [{"class": 1}], "rowcount": 1, "statement_type": "SELECT"}
        members = stack.engine_conn.execute(workloads.MEMBERS_SQL).fetchall()
        big = {"rowcount": len(members), "statement_type": "SELECT", "rows": members}
        left, right = socket.socketpair()
        try:
            left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 22)
            encode = time_calls(lambda: write_frame(left, point), [()] * REPEATS) * 1e6
            decode = time_calls(lambda: read_frame(right), [()] * REPEATS) * 1e6

            before = calib.sample()
            timings = []
            for _ in range(10):  # drained after each write, so the socket buffer never fills
                started = time.perf_counter()
                write_frame(left, big)
                timings.append(time.perf_counter() - started)
                read_frame(right)
            big_encode = statistics.median(timings) * calib.factor(before, calib.sample()) * 1e3
        finally:
            left.close()
            right.close()
        return encode, decode, big_encode

    probes.run(("net.frame_encode_us", "net.frame_decode_us", "net.members_frame_encode_ms"), codec)

    def live():
        from repro.net import SQLServer, connect

        server = stack.sql_server or SQLServer(stack.engine_conn.engine).start()
        client = stack.client if stack.sql_server else connect(server.host, server.port)
        try:
            ping = time_calls(client.ping, [()] * REPEATS) * 1e6
            before = server.admission.stats()
            over_wire = time_calls(
                lambda *key: client.execute(workloads.POINT_SQL, key).scalar(), keys
            )
            after = server.admission.stats()
            waits = after["point.admitted_total"] - before["point.admitted_total"]
            waited = after["point.wait_seconds_total"] - before["point.wait_seconds_total"]
            local = time_calls(
                lambda *key: stack.engine_conn.execute(workloads.POINT_SQL, key).scalar(),
                keys,
            )
            return ping, (waited / waits if waits else 0.0) * 1e6, (over_wire - local) * 1e6
        finally:
            if stack.sql_server is None:
                client.close()
                server.close()

    probes.run(("net.ping_rtt_us", "net.admission_wait_us", "net.wire_overhead_us"), live)


def observability(probes: Probes, spec, inputs) -> None:
    """obs: the same point read with the program's own Observability on and off."""

    def overhead():
        import repro

        small = inputs.entity_rows[:400]
        ids = {entity_id for entity_id, _ in small}
        examples = [example for example in inputs.warm if example[0] in ids][:100]
        keys = [(entity_id,) for entity_id, _ in small[:REPEATS]]
        timings = {}
        for enabled in (True, False):
            conn = harness.open_engine(spec, observability=repro.Observability(enabled=enabled))
            try:
                harness.load_base(conn, small, examples)
                harness.create_view(conn, spec)
                timings[enabled] = time_calls(
                    lambda *key, conn=conn: conn.execute(workloads.POINT_SQL, key).scalar(),
                    keys * 3,
                )
            finally:
                conn.close()
        return (timings[True] / timings[False],)

    probes.run(("obs.overhead_ratio",), overhead)


def recovery_inputs(probes: Probes, crash_dir) -> None:
    """persist: how many WAL records a recovery from the crash image must replay."""

    def records():
        load_checkpoint = lookup("repro.persist.checkpoint.load_checkpoint")
        log_class = lookup("repro.persist.wal.WriteAheadLog")
        applied = load_checkpoint(crash_dir / "checkpoint").manifest.wal_applied_seq
        log = log_class(crash_dir / "wal", fresh=False)
        try:
            return (float(len(log.records_after(applied))),)
        finally:
            log.close()

    probes.run(("persist.wal_records_replayed",), records)
