"""Tables: schema + heap file + primary-key hash index + secondary indexes + triggers."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence

from repro.db.buffer_pool import BufferPool
from repro.db.hash_index import HashIndex
from repro.db.heap import HeapFile
from repro.db.page import RecordId
from repro.db.schema import TableSchema
from repro.db.secondary_index import SecondaryIndex
from repro.db.triggers import Trigger, TriggerEvent, TriggerSet
from repro.exceptions import DuplicateKeyError, KeyNotFoundError, SchemaError

__all__ = ["Table"]


class Table:
    """A heap-backed table with an optional unique primary-key index.

    All reads and writes go through the buffer pool so the database-wide
    :class:`~repro.db.buffer_pool.IOStatistics` ledger reflects every access.
    ``CREATE INDEX`` attaches :class:`~repro.db.secondary_index.SecondaryIndex`
    B+-trees which every write maintains inline, so index scans never observe
    ghost or missing rows.
    """

    def __init__(self, schema: TableSchema, pool: BufferPool):
        self.schema = schema
        self.pool = pool
        self.heap = HeapFile(pool, sizer=schema.row_size)
        self.primary_index = HashIndex(schema.primary_key) if schema.primary_key else None
        self.secondary_indexes: dict[str, SecondaryIndex] = {}
        self.triggers = TriggerSet()

    @property
    def name(self) -> str:
        """The table's name (from its schema)."""
        return self.schema.name

    # -- write path -----------------------------------------------------------------

    def insert(self, row: Mapping[str, object]) -> RecordId:
        """Validate, store and index a new row, then fire AFTER INSERT triggers."""
        validated = self.schema.validate_row(row)
        if self.primary_index is not None:
            key = validated[self.schema.primary_key]
            if key in self.primary_index:
                raise DuplicateKeyError(
                    f"table {self.name!r}: duplicate primary key {key!r}"
                )
        rid = self.heap.insert(validated)
        if self.primary_index is not None:
            self.primary_index.insert(validated[self.schema.primary_key], rid)
        for index in self.secondary_indexes.values():
            index.insert(validated, rid)
        self.triggers.fire(TriggerEvent.AFTER_INSERT, self.name, validated, None)
        return rid

    def update_by_key(self, key: object, changes: Mapping[str, object]) -> dict[str, object]:
        """Update the row with primary key ``key`` in place; returns the new row."""
        if self.primary_index is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rid = self.primary_index.lookup(key)
        old_row = dict(self.heap.read(rid))
        merged = dict(old_row)
        merged.update(changes)
        validated = self.schema.validate_row(merged)
        new_key = validated[self.schema.primary_key]
        if new_key != key and new_key in self.primary_index:
            raise DuplicateKeyError(f"table {self.name!r}: duplicate primary key {new_key!r}")
        self.heap.update(rid, validated)
        if new_key != key:
            self.primary_index.delete(key)
            self.primary_index.insert(new_key, rid)
        for index in self.secondary_indexes.values():
            index.replace(old_row, validated, rid)
        self.triggers.fire(TriggerEvent.AFTER_UPDATE, self.name, validated, old_row)
        return validated

    def delete_by_key(self, key: object) -> dict[str, object]:
        """Delete the row with primary key ``key``; returns the deleted row."""
        if self.primary_index is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rid = self.primary_index.lookup(key)
        old_row = dict(self.heap.read(rid))
        self.heap.delete(rid)
        self.primary_index.delete(key)
        for index in self.secondary_indexes.values():
            index.delete(old_row, rid)
        self.triggers.fire(TriggerEvent.AFTER_DELETE, self.name, None, old_row)
        return old_row

    def truncate(self) -> None:
        """Remove every row (no triggers fire; secondary indexes empty with the heap)."""
        self.heap.truncate()
        if self.primary_index is not None:
            self.primary_index.clear()
        for index in self.secondary_indexes.values():
            index.clear()

    # -- read path ---------------------------------------------------------------------

    def get_by_key(self, key: object) -> dict[str, object]:
        """Point lookup through the primary-key hash index (random page access)."""
        if self.primary_index is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rid = self.primary_index.lookup(key)
        return dict(self.heap.read(rid, sequential=False))

    def try_get_by_key(self, key: object) -> dict[str, object] | None:
        """Point lookup returning None when the key is absent."""
        try:
            return self.get_by_key(key)
        except KeyNotFoundError:
            return None

    def scan(
        self, predicate: Callable[[dict[str, object]], bool] | None = None
    ) -> Iterator[dict[str, object]]:
        """Sequential scan, optionally filtered by ``predicate``."""
        for _, row in self.heap.scan():
            row_copy = dict(row)
            if predicate is None or predicate(row_copy):
                yield row_copy

    def count(self, predicate: Callable[[dict[str, object]], bool] | None = None) -> int:
        """Number of rows (matching ``predicate`` when given)."""
        return sum(1 for _ in self.scan(predicate))

    def row_count(self) -> int:
        """Live row count without touching pages (catalog metadata)."""
        return self.heap.row_count()

    def page_count(self) -> int:
        """Number of heap pages."""
        return self.heap.page_count()

    def approximate_size_bytes(self) -> int:
        """Approximate table size (pages x page size)."""
        return self.page_count() * self.pool.cost_model.page_size_bytes

    # -- secondary indexes --------------------------------------------------------------

    def create_secondary_index(
        self, name: str, columns: str | Sequence[str]
    ) -> SecondaryIndex:
        """Build a B+-tree index over ``columns``, backfilled from a full scan.

        Every index keys on the tuple of its columns' values; a single column
        name is a one-column key.  The backfill prices like the physical operation it models: one sequential
        heap scan (charged by the scan itself) plus an n·log n sort charge for
        building the tree, tagged ``index_build``.
        """
        key = name.lower()
        if key in self.secondary_indexes:
            raise DuplicateKeyError(
                f"table {self.name!r} already has an index named {name!r}"
            )
        if isinstance(columns, str):
            columns = (columns,)
        # raises SchemaError if any column is unknown
        canonical = tuple(self.schema.column(column).name for column in columns)
        seen: set[str] = set()
        for column in canonical:
            if column.lower() in seen:
                raise SchemaError(
                    f"index {name!r} lists column {column!r} more than once"
                )
            seen.add(column.lower())
        index = SecondaryIndex(name, canonical, self.pool)
        for rid, row in self.heap.scan():
            index.insert(row, rid)
        self.pool.stats.charge(
            self.pool.cost_model.sort_cost(len(index)), "index_build"
        )
        self.secondary_indexes[key] = index
        return index

    def drop_secondary_index(self, name: str) -> bool:
        """Detach (and stop maintaining) the index called ``name``."""
        return self.secondary_indexes.pop(name.lower(), None) is not None

    def secondary_index(self, name: str) -> SecondaryIndex | None:
        """The index called ``name``, or None."""
        return self.secondary_indexes.get(name.lower())

    def secondary_index_names(self) -> list[str]:
        """Sorted names of this table's secondary indexes."""
        return sorted(index.name for index in self.secondary_indexes.values())

    # -- triggers -----------------------------------------------------------------------

    def add_trigger(self, trigger: Trigger) -> None:
        """Attach a row-level trigger."""
        self.triggers.add(trigger)

    def drop_trigger(self, name: str) -> bool:
        """Detach the trigger called ``name``."""
        return self.triggers.remove(name)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.row_count()}, pages={self.page_count()})"
