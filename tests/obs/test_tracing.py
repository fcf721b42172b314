"""Per-statement tracing: span trees, the ring, slow-query capture."""

from __future__ import annotations

import pytest

import repro
from repro.obs import Observability, TraceContext, TraceRing, current_trace, use_trace

from tests.db.test_sql_plan import balanced_portal


class TestTraceContext:
    def test_span_tree_parenting(self):
        trace = TraceContext("SELECT 1")
        root = trace.add_span("statement")
        child = trace.add_span("execute", parent_id=root.span_id)
        grandchild = trace.add_span("node:SeqScan(t)", parent_id=child.span_id)
        spans = {span.name: span for span in trace.spans()}
        assert spans["statement"].parent_id is None
        assert spans["execute"].parent_id == root.span_id
        assert spans["node:SeqScan(t)"].parent_id == child.span_id
        assert grandchild.span_id == 3

    def test_finalize_mirrors_totals_onto_root(self):
        trace = TraceContext("SELECT 1")
        trace.add_span("statement")
        trace.finalize(simulated_seconds=0.25, wall_seconds=0.5)
        assert trace.simulated_seconds == 0.25
        assert trace.spans()[0].simulated_seconds == 0.25
        assert trace.spans()[0].wall_seconds == 0.5

    def test_to_rows_and_render(self):
        trace = TraceContext("SELECT x FROM t")
        root = trace.add_span("statement")
        trace.add_span("execute", parent_id=root.span_id, rows=7)
        rows = trace.to_rows()
        assert [row["name"] for row in rows] == ["statement", "execute"]
        assert all(row["sql"] == "SELECT x FROM t" for row in rows)
        rendered = trace.render()
        assert "statement" in rendered
        assert "  execute" in rendered  # children indent under their parent

    def test_current_trace_contextvar(self):
        assert current_trace() is None
        trace = TraceContext("SELECT 1")
        with use_trace(trace):
            assert current_trace() is trace
        assert current_trace() is None


class TestTraceRing:
    def test_bounded_and_ordered(self):
        ring = TraceRing(capacity=3)
        traces = [TraceContext(f"q{i}") for i in range(5)]
        for trace in traces:
            ring.append(trace)
        kept = ring.snapshot()
        assert len(kept) == 3
        assert [t.sql for t in kept] == ["q2", "q3", "q4"]
        ring.clear()
        assert len(ring) == 0

    def test_observability_sizes_its_rings_when_built(self, monkeypatch):
        monkeypatch.setattr("repro.obs.TRACE_CAPACITY", 3)
        monkeypatch.setattr("repro.obs.SLOW_QUERY_CAPACITY", 2)
        obs = Observability(slow_query_seconds=0.0)  # every statement is slow
        for i in range(5):
            obs.record_trace(TraceContext(f"q{i}"))
        assert [t.sql for t in obs.traces.snapshot()] == ["q2", "q3", "q4"]
        assert [t.sql for t in obs.slow_queries.snapshot()] == ["q3", "q4"]


class TestStatementTracing:
    def test_execute_records_full_span_tree(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY, v text)")
        conn.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        conn.execute("SELECT * FROM t").fetchall()
        trace = conn.database.obs.traces.snapshot()[-1]
        names = [span.name for span in trace.spans()]
        assert names[0] == "statement"
        assert "parse" in names and "plan" in names and "execute" in names
        assert any(name.startswith("node:") for name in names)
        conn.close()

    def test_plan_cache_hit_skips_parse_and_plan_spans(self):
        # Spans record work performed: a cache hit parses and plans nothing.
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        conn.execute("SELECT * FROM t").fetchall()
        conn.execute("SELECT * FROM t").fetchall()
        first, second = conn.database.obs.traces.snapshot()[-2:]
        first_names = [span.name for span in first.spans()]
        assert "parse" in first_names and "plan" in first_names  # the miss
        second_names = [span.name for span in second.spans()]
        assert "parse" not in second_names and "plan" not in second_names
        assert "execute" in second_names
        conn.close()

    def test_disabled_observability_records_nothing(self):
        conn = repro.connect(observability=Observability(enabled=False))
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        conn.execute("SELECT * FROM t").fetchall()
        assert len(conn.database.obs.traces) == 0
        assert conn.database.obs.registry.collect() == []
        conn.close()

    def test_slow_query_threshold_and_counter(self):
        conn = repro.connect()
        conn.database.obs.slow_query_seconds = 0.0  # trap everything
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        conn.execute("SELECT * FROM t").fetchall()
        obs = conn.database.obs
        assert len(obs.slow_queries) > 0
        assert obs.registry.value("sql.slow_queries_total") > 0
        # Raising the threshold stops new captures.
        before = len(obs.slow_queries)
        obs.slow_query_seconds = 1e9
        conn.execute("SELECT * FROM t").fetchall()
        assert len(obs.slow_queries) == before
        conn.close()

    def test_trace_actuals_match_explain_analyze(self):
        """Per-node simulated seconds in the trace == EXPLAIN ANALYZE actuals."""
        conn = repro.connect()
        conn.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
        conn.executemany("INSERT INTO t (id, v) VALUES (?, ?)", [(i, i * 2) for i in range(50)])
        sql = "SELECT * FROM t WHERE v > 10"
        conn.execute(sql).fetchall()
        trace = conn.database.obs.traces.snapshot()[-1]
        node_spans = [s for s in trace.spans() if s.name.startswith("node:")]
        analyze = conn.execute(f"EXPLAIN ANALYZE {sql}").fetchall()
        actuals = {
            row["node"].strip(): row["actual_seconds"] for row in analyze if "actual_seconds" in row
        }
        assert node_spans, "trace carries no plan-node spans"
        for span in node_spans:
            label = span.name[len("node:") :]
            assert label in actuals
            assert span.simulated_seconds == pytest.approx(actuals[label])
        conn.close()

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO examples (id, label) VALUES (?, 1)",
            "UPDATE entities SET features = ? WHERE id = ?",
            "DELETE FROM entities WHERE id = ?",
        ],
    )
    def test_dml_trace_carries_the_maintenance_of_an_unserved_view(self, sql):
        """An unserved view is maintained inside the statement that writes its
        base table, so the statement's trace carries that cost; a served view
        is maintained by its worker, and the statement's trace does not."""
        conn = balanced_portal()
        try:
            ledgers = (conn.database.stats, conn.engine.view("labeled").maintainer.store.stats)
            rows = conn.execute("SELECT * FROM entities LIMIT 2").fetchall()
            for served, row in zip((False, True), rows):
                if served:
                    conn.execute("SERVE VIEW labeled WITH (shards = 2)")
                parameters = (row["id"],)
                if sql.startswith("UPDATE"):
                    parameters = (row["features"], row["id"])
                before = [ledger.simulated_seconds for ledger in ledgers]
                conn.execute(sql, parameters)
                written, maintained = (
                    ledger.simulated_seconds - start for ledger, start in zip(ledgers, before)
                )
                trace = conn.database.obs.traces.snapshot()[-1]
                (execute,) = [span for span in trace.spans() if span.name == "execute"]
                assert (maintained > 0.0) is not served
                assert execute.simulated_seconds == pytest.approx(written + maintained)
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()
