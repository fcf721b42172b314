"""The system catalog: tables, classification views, system tables."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from repro.db.table import Table
from repro.exceptions import CatalogError

__all__ = ["Catalog"]

#: A ``system.*`` table's producer: a callable yielding rows on demand.
RowProducer = Callable[[], Iterator[Mapping[str, object]]]


class Catalog:
    """Name -> object mapping for tables, classification views and system tables.

    Names are case-insensitive, as in PostgreSQL's default folding.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._classification_views: dict[str, object] = {}
        self._system_tables: dict[str, RowProducer] = {}
        self._indexes: dict[str, str] = {}  # index name -> owning table name (lowered)
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every namespace or access-path change.

        Cached query plans record the version they were built against; the
        executor re-plans when it moved, so a plan cached by one connection
        can never silently read a table or view another connection dropped
        or replaced.  Index DDL bumps it too: ``CREATE INDEX`` opens an
        access path cached plans should re-cost, and ``DROP INDEX`` kills one
        a cached :class:`~repro.db.sql.plan.SecondaryIndexRange` would
        otherwise keep reading through a no-longer-maintained tree.
        """
        return self._version

    # -- tables ---------------------------------------------------------------------

    def register_table(self, table: Table) -> None:
        """Add a table; duplicate names are an error."""
        key = table.name.lower()
        if key in self._tables or key in self._classification_views:
            raise CatalogError(f"object {table.name!r} already exists")
        self._tables[key] = table
        self._version += 1

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"no table named {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name.lower() in self._tables

    def drop_table(self, name: str) -> None:
        """Remove a table (and its index registrations) from the catalog."""
        if name.lower() not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        del self._tables[name.lower()]
        self._indexes = {
            index: table for index, table in self._indexes.items() if table != name.lower()
        }
        self._version += 1

    # -- secondary indexes -------------------------------------------------------------

    def register_index(self, name: str, table_name: str) -> None:
        """Record a secondary index (its tree lives on the owning Table)."""
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        self._indexes[key] = table_name.lower()
        self._version += 1

    def unregister_index(self, name: str) -> None:
        """Forget a secondary index registration."""
        if name.lower() not in self._indexes:
            raise CatalogError(f"no index named {name!r}")
        del self._indexes[name.lower()]
        self._version += 1

    def has_index(self, name: str) -> bool:
        """Whether a secondary index with this name exists."""
        return name.lower() in self._indexes

    def index_table(self, name: str) -> Table:
        """The table owning the index called ``name``."""
        table_key = self._indexes.get(name.lower())
        if table_key is None:
            raise CatalogError(f"no index named {name!r}")
        return self._tables[table_key]

    # -- classification views -------------------------------------------------------------

    def register_classification_view(self, name: str, view: object) -> None:
        """Add a classification view (maintained by the Hazy engine)."""
        key = name.lower()
        if key in self._tables or key in self._classification_views:
            raise CatalogError(f"object {name!r} already exists")
        self._classification_views[key] = view
        self._version += 1

    def unregister_classification_view(self, name: str) -> bool:
        """Remove a classification view registration (engine rollback path)."""
        removed = self._classification_views.pop(name.lower(), None) is not None
        if removed:
            self._version += 1
        return removed

    def classification_view(self, name: str) -> object:
        """Look up a classification view by name."""
        view = self._classification_views.get(name.lower())
        if view is None:
            raise CatalogError(f"no classification view named {name!r}")
        return view

    # -- system tables ---------------------------------------------------------------------

    def register_system_table(self, name: str, producer: RowProducer) -> None:
        """Add (or replace) a virtual ``system.*`` table.

        System tables are observability surfaces (``system.metrics``,
        ``system.traces``, ...) backed by row-producing callables; unlike user
        namespaces, re-registration silently replaces — rebuilding an engine
        on the same database re-binds ``system.served_views`` rather than
        erroring.  The version still bumps so cached plans re-resolve.
        """
        self._system_tables[name.lower()] = producer
        self._version += 1

    def system_table(self, name: str) -> RowProducer:
        """Look up a system table's row producer by name."""
        producer = self._system_tables.get(name.lower())
        if producer is None:
            raise CatalogError(f"no system table named {name!r}")
        return producer

    def object_kind(self, name: str) -> str | None:
        """Which namespace a name lives in: ``"table"``,
        ``"classification_view"``, ``"system_table"``, or None when unknown.
        Used by the SQL front-end to pick an access path without
        trial-and-error lookups."""
        key = name.lower()
        if key in self._tables:
            return "table"
        if key in self._classification_views:
            return "classification_view"
        if key in self._system_tables:
            return "system_table"
        return None
