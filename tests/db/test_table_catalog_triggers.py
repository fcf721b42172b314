"""Unit tests for tables, the catalog, and triggers."""

from __future__ import annotations

import pytest

from repro.db.buffer_pool import BufferPool
from repro.db.catalog import Catalog
from repro.db.costmodel import CostModel
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.triggers import Trigger, TriggerEvent, TriggerSet
from repro.db.types import DataType
from repro.exceptions import CatalogError, DuplicateKeyError, KeyNotFoundError, SchemaError


def make_table(primary_key: str | None = "id") -> Table:
    schema = TableSchema(
        "papers",
        [Column("id", DataType.INTEGER, nullable=False), Column("title", DataType.TEXT)],
        primary_key=primary_key,
    )
    return Table(schema, BufferPool(CostModel()))


class TestTable:
    def test_insert_and_get(self):
        table = make_table()
        table.insert({"id": 1, "title": "Hazy"})
        assert table.get_by_key(1)["title"] == "Hazy"
        assert table.row_count() == 1

    def test_duplicate_primary_key_rejected(self):
        table = make_table()
        table.insert({"id": 1})
        with pytest.raises(DuplicateKeyError):
            table.insert({"id": 1})

    def test_missing_key_raises(self):
        with pytest.raises(KeyNotFoundError):
            make_table().get_by_key(99)

    def test_try_get_returns_none(self):
        assert make_table().try_get_by_key(99) is None

    def test_update_by_key(self):
        table = make_table()
        table.insert({"id": 1, "title": "a"})
        updated = table.update_by_key(1, {"title": "b"})
        assert updated["title"] == "b"
        assert table.get_by_key(1)["title"] == "b"

    def test_update_changing_primary_key(self):
        table = make_table()
        table.insert({"id": 1, "title": "a"})
        table.update_by_key(1, {"id": 2})
        assert table.try_get_by_key(1) is None
        assert table.get_by_key(2)["title"] == "a"

    def test_update_to_conflicting_key_rejected(self):
        table = make_table()
        table.insert({"id": 1})
        table.insert({"id": 2})
        with pytest.raises(DuplicateKeyError):
            table.update_by_key(1, {"id": 2})

    def test_delete_by_key(self):
        table = make_table()
        table.insert({"id": 1})
        deleted = table.delete_by_key(1)
        assert deleted["id"] == 1
        assert table.row_count() == 0

    def test_scan_with_predicate(self):
        table = make_table()
        for i in range(10):
            table.insert({"id": i, "title": f"p{i}"})
        even = list(table.scan(lambda row: row["id"] % 2 == 0))
        assert len(even) == 5

    def test_count(self):
        table = make_table()
        for i in range(7):
            table.insert({"id": i})
        assert table.count() == 7
        assert table.count(lambda row: row["id"] < 3) == 3

    def test_operations_requiring_pk_fail_without_one(self):
        table = make_table(primary_key=None)
        table.insert({"id": 1})
        with pytest.raises(SchemaError):
            table.get_by_key(1)
        with pytest.raises(SchemaError):
            table.update_by_key(1, {})
        with pytest.raises(SchemaError):
            table.delete_by_key(1)

    def test_truncate(self):
        table = make_table()
        for i in range(5):
            table.insert({"id": i})
        table.truncate()
        assert table.row_count() == 0
        assert table.try_get_by_key(1) is None

    def test_size_accounting(self):
        table = make_table()
        for i in range(100):
            table.insert({"id": i, "title": "x" * 100})
        assert table.page_count() >= 1
        assert table.approximate_size_bytes() >= table.page_count() * 8192


class TestTriggers:
    def test_after_insert_trigger_fires(self):
        table = make_table()
        seen = []
        table.add_trigger(
            Trigger("t", TriggerEvent.AFTER_INSERT, lambda name, new, old: seen.append((name, new)))
        )
        table.insert({"id": 1, "title": "x"})
        assert seen and seen[0][0] == "papers"
        assert seen[0][1]["id"] == 1

    def test_after_update_and_delete_triggers(self):
        table = make_table()
        events = []
        table.add_trigger(
            Trigger("u", TriggerEvent.AFTER_UPDATE, lambda n, new, old: events.append(("u", old["title"], new["title"])))
        )
        table.add_trigger(
            Trigger("d", TriggerEvent.AFTER_DELETE, lambda n, new, old: events.append(("d", old["id"])))
        )
        table.insert({"id": 1, "title": "a"})
        table.update_by_key(1, {"title": "b"})
        table.delete_by_key(1)
        assert ("u", "a", "b") in events
        assert ("d", 1) in events

    def test_drop_trigger(self):
        table = make_table()
        seen = []
        table.add_trigger(Trigger("t", TriggerEvent.AFTER_INSERT, lambda n, new, old: seen.append(1)))
        assert table.drop_trigger("t")
        table.insert({"id": 1})
        assert seen == []

    def test_trigger_set_fires_in_registration_order(self):
        order = []
        triggers = TriggerSet()
        triggers.add(Trigger("first", TriggerEvent.AFTER_INSERT, lambda n, new, old: order.append(1)))
        triggers.add(Trigger("second", TriggerEvent.AFTER_INSERT, lambda n, new, old: order.append(2)))
        triggers.fire(TriggerEvent.AFTER_INSERT, "t", {}, None)
        assert order == [1, 2]

    def test_trigger_names(self):
        triggers = TriggerSet()
        triggers.add(Trigger("a", TriggerEvent.AFTER_INSERT, lambda n, new, old: None))
        assert triggers.names() == ["a"]

    def test_remove_missing_trigger_returns_false(self):
        assert not TriggerSet().remove("missing")


class TestCatalog:
    def test_register_and_lookup_table(self):
        catalog = Catalog()
        table = make_table()
        catalog.register_table(table)
        assert catalog.table("PAPERS") is table
        assert catalog.has_table("papers")

    def test_duplicate_names_rejected_across_kinds(self):
        catalog = Catalog()
        catalog.register_table(make_table())
        with pytest.raises(CatalogError):
            catalog.register_classification_view("Papers", object())

    def test_missing_objects_raise(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.table("nope")
        with pytest.raises(CatalogError):
            catalog.classification_view("nope")
        with pytest.raises(CatalogError):
            catalog.system_table("nope")
        assert catalog.object_kind("nope") is None

    def test_drop_table(self):
        catalog = Catalog()
        catalog.register_table(make_table())
        catalog.drop_table("papers")
        assert not catalog.has_table("papers")
        with pytest.raises(CatalogError):
            catalog.drop_table("papers")

    def test_classification_views(self):
        catalog = Catalog()
        marker = object()
        catalog.register_classification_view("cv", marker)
        assert catalog.classification_view("cv") is marker
        assert catalog.object_kind("CV") == "classification_view"

    def test_object_kind_names_the_namespace(self):
        catalog = Catalog()
        table = make_table()
        catalog.register_table(table)

        def producer():
            return iter([])

        catalog.register_system_table("system.x", producer)
        assert catalog.object_kind("papers") == "table"
        assert catalog.table("papers") is table
        assert catalog.object_kind("system.x") == "system_table"
        assert catalog.system_table("system.x") is producer
