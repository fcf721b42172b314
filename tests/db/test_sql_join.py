"""Hash joins between base tables and classification views through SQL."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import SQLPlanningError, SQLSyntaxError

from tests.db.test_sql_plan import balanced_portal


def expected_join(conn, class_value=None):
    """Reference result: nested-loop join computed client-side."""
    entities = {
        row["id"]: row["features"] for row in conn.execute("SELECT * FROM entities").fetchall()
    }
    view = {row["id"]: row["class"] for row in conn.execute("SELECT * FROM labeled").fetchall()}
    rows = []
    for entity_id, features in entities.items():
        if entity_id not in view:
            continue
        if class_value is not None and view[entity_id] != class_value:
            continue
        rows.append({"id": entity_id, "class": view[entity_id]})
    return sorted(rows, key=lambda row: row["id"])


class TestJoinCorrectness:
    def test_table_join_unserved_view(self):
        conn = balanced_portal()
        try:
            got = conn.execute(
                "SELECT entities.id, class FROM entities JOIN labeled "
                "ON entities.id = labeled.id WHERE class = 1 ORDER BY entities.id"
            ).fetchall()
            assert [
                {"id": row["id"], "class": row["class"]} for row in got
            ] == expected_join(conn, class_value=1)
        finally:
            conn.close()

    def test_table_join_served_view_with_and_without_pushdown(self):
        conn = balanced_portal()
        try:
            conn.execute("SERVE VIEW labeled WITH (shards = 3)")
            with_class = conn.execute(
                "SELECT entities.id, class FROM entities JOIN labeled "
                "ON entities.id = labeled.id WHERE class = 1 ORDER BY entities.id"
            ).fetchall()
            assert [
                {"id": row["id"], "class": row["class"]} for row in with_class
            ] == expected_join(conn, class_value=1)
            # No class predicate: the probe keys drive the batcher instead of
            # materializing the view; every entity matches exactly once.
            without = conn.execute(
                "SELECT entities.id, class FROM entities JOIN labeled "
                "ON entities.id = labeled.id ORDER BY entities.id"
            ).fetchall()
            assert [
                {"id": row["id"], "class": row["class"]} for row in without
            ] == expected_join(conn)
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()

    def test_join_key_range_pushdown_on_view_side(self):
        conn = balanced_portal()
        try:
            conn.execute("SERVE VIEW labeled WITH (shards = 3)")
            got = conn.execute(
                "SELECT entities.id, class FROM entities JOIN labeled "
                "ON entities.id = labeled.id "
                "WHERE class = 1 AND labeled.id >= 40 ORDER BY entities.id"
            ).fetchall()
            expected = [row for row in expected_join(conn, class_value=1) if row["id"] >= 40]
            assert [{"id": row["id"], "class": row["class"]} for row in got] == expected
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()

    def test_colliding_columns_are_qualified_on_the_join_side(self):
        conn = balanced_portal()
        try:
            row = conn.execute(
                "SELECT * FROM entities JOIN labeled ON entities.id = labeled.id LIMIT 1"
            ).fetchone()
            # Left columns keep their names; the right side's colliding key is
            # prefixed with the join source's name.
            assert "id" in row and "features" in row and "class" in row
            assert "labeled.id" in row
            assert row["id"] == row["labeled.id"]
        finally:
            conn.close()

    def test_join_on_class_column_materializes_instead_of_probe_lookup(self):
        """A join keyed on a non-entity-key view column must not route through
        the batched point lookup (which would treat class values as ids)."""
        conn = balanced_portal()
        try:
            conn.execute("CREATE TABLE classes (label integer PRIMARY KEY, name text)")
            conn.execute("INSERT INTO classes (label, name) VALUES (1, 'pos'), (-1, 'neg')")
            sql = (
                "SELECT name, labeled.id FROM classes JOIN labeled "
                "ON classes.label = labeled.class ORDER BY labeled.id"
            )
            unserved = conn.execute(sql).fetchall()
            assert len(unserved) == conn.execute("SELECT COUNT(*) FROM labeled").scalar()
            conn.execute("SERVE VIEW labeled WITH (shards = 3)")
            served = conn.execute(sql).fetchall()
            assert served == unserved
            plan = conn.execute(f"EXPLAIN {sql}").fetchall()
            assert not any("batch" in row["node"] for row in plan)
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()

    def test_unserved_key_join_reads_its_probe_keys_in_one_statement(self):
        """An unserved view joined on its key reads the probe side's keys as
        one batch, as a served one does: one statement overhead, not one per
        key or per stored entity."""
        conn = balanced_portal()
        try:
            sql = "SELECT examples.id, class FROM examples JOIN labeled ON examples.id = labeled.id"
            plan = [row["node"].strip() for row in conn.execute(f"EXPLAIN {sql}").fetchall()]
            assert "ViewPointRead(labeled, batch)" in plan
            store = conn.engine.view("labeled").maintainer.store
            before = store.stats.detail.get("statement", 0.0)
            rows = conn.execute(sql).fetchall()
            charged = store.stats.detail.get("statement", 0.0) - before
            assert charged == pytest.approx(store.cost_model.statement_overhead)
            view = {
                row["id"]: row["class"] for row in conn.execute("SELECT * FROM labeled").fetchall()
            }
            examples = [row["id"] for row in conn.execute("SELECT id FROM examples").fetchall()]
            assert rows == [{"id": key, "class": view[key]} for key in examples]
        finally:
            conn.close()

    def test_count_over_join(self):
        conn = balanced_portal()
        try:
            count = conn.execute(
                "SELECT COUNT(*) FROM entities JOIN labeled "
                "ON entities.id = labeled.id WHERE class = 1"
            ).scalar()
            assert count == len(expected_join(conn, class_value=1))
        finally:
            conn.close()

    def test_table_join_table(self):
        conn = balanced_portal()
        try:
            count = conn.execute(
                "SELECT COUNT(*) FROM examples JOIN entities ON examples.id = entities.id"
            ).scalar()
            assert count == conn.execute("SELECT COUNT(*) FROM examples").scalar()
        finally:
            conn.close()

    def test_join_on_requires_both_sides(self):
        conn = balanced_portal()
        try:
            with pytest.raises(SQLPlanningError, match="each side"):
                conn.execute("SELECT * FROM entities JOIN labeled ON entities.id = entities.id")
            with pytest.raises(SQLSyntaxError, match="equality"):
                conn.execute("SELECT * FROM entities JOIN labeled ON entities.id >= labeled.id")
        finally:
            conn.close()


class TestJoinSessionConsistency:
    """Read-your-writes holds through the join under concurrent writes."""

    def test_join_sees_this_connections_example_insert(self):
        conn = balanced_portal()
        try:
            conn.execute("SERVE VIEW labeled WITH (shards = 3)")
            missing = conn.execute("SELECT COUNT(*) FROM examples WHERE id = 999").scalar()
            assert missing == 0
            # A diverted write through this connection parks a ticket on its
            # session; the next join read must wait for it to become visible.
            victim = conn.execute("SELECT id FROM entities LIMIT 1").scalar()
            conn.execute("INSERT INTO examples (id, label) VALUES (?, ?)", (victim, 1))
            session = conn.session("labeled")
            assert session._pending is not None
            rows = conn.execute(
                "SELECT entities.id, class FROM entities JOIN labeled "
                "ON entities.id = labeled.id"
            ).fetchall()
            assert session._pending is None  # the join consumed the ticket
            assert session.last_epoch >= 1
            assert len(rows) == conn.execute("SELECT COUNT(*) FROM entities").scalar()
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()

    def test_joins_stay_correct_under_concurrent_writers(self):
        import repro

        conn = balanced_portal()
        try:
            conn.execute("SERVE VIEW labeled WITH (shards = 3)")
            entity_count = conn.execute("SELECT COUNT(*) FROM entities").scalar()
            labels = {
                row["id"]: row["label"] for row in conn.execute("SELECT * FROM examples").fetchall()
            }
            unlabeled = [
                row["id"]
                for row in conn.execute("SELECT id FROM entities").fetchall()
                if row["id"] not in labels
            ]
            errors: list[BaseException] = []

            def writer():
                try:
                    writer_conn = repro.connect(engine=conn.engine)
                    for entity_id in unlabeled[:20]:
                        writer_conn.execute(
                            "INSERT INTO examples (id, label) VALUES (?, ?)",
                            (entity_id, 1 if entity_id % 2 else -1),
                        )
                    writer_conn.close()
                except BaseException as error:  # pragma: no cover - failure path
                    errors.append(error)

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                for _ in range(15):
                    rows = conn.execute(
                        "SELECT entities.id, class FROM entities JOIN labeled "
                        "ON entities.id = labeled.id"
                    ).fetchall()
                    # Every entity joins exactly once, whatever epoch answered.
                    assert len(rows) == entity_count
                    assert all(row["class"] in (1, -1) for row in rows)
            finally:
                thread.join()
            assert not errors
            conn.execute("STOP SERVING labeled")
        finally:
            conn.close()
