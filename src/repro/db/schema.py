"""Table schemas: column definitions, validation, and row sizing."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.db.types import DataType, coerce_value, estimate_value_size
from repro.exceptions import SchemaError

__all__ = ["Column", "TableSchema"]


@dataclass(frozen=True)
class Column:
    """One column: a name, a data type, and a nullability flag."""

    name: str
    data_type: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")


class TableSchema:
    """An ordered set of columns plus an optional primary-key column.

    Rows are plain dictionaries keyed by column name; :meth:`validate_row`
    coerces values to the declared types and fills missing columns with NULL.
    """

    def __init__(self, name: str, columns: Sequence[Column], primary_key: str | None = None):
        if not name:
            raise SchemaError("table name must be non-empty")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        seen: set[str] = set()
        for column in columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SchemaError(f"duplicate column {column.name!r} in table {name!r}")
            seen.add(lowered)
        self.name = name
        self.columns = tuple(columns)
        self._by_name = {column.name.lower(): column for column in columns}
        if primary_key is not None:
            if primary_key.lower() not in self._by_name:
                raise SchemaError(
                    f"primary key {primary_key!r} is not a column of table {name!r}"
                )
            primary_key = self._by_name[primary_key.lower()].name
        self.primary_key = primary_key

    # -- introspection -------------------------------------------------------

    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        """Case-insensitive column existence check."""
        return name.lower() in self._by_name

    def column(self, name: str) -> Column:
        """Look up a column by (case-insensitive) name."""
        column = self._by_name.get(name.lower())
        if column is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return column

    # -- row handling ---------------------------------------------------------

    def validate_row(self, row: Mapping[str, object]) -> dict[str, object]:
        """Return a coerced row dict containing exactly the schema's columns."""
        unknown = [key for key in row if not self.has_column(key)]
        if unknown:
            raise SchemaError(f"table {self.name!r} has no column(s) {unknown}")
        validated: dict[str, object] = {}
        for column in self.columns:
            value = None
            for key, candidate in row.items():
                if key.lower() == column.name.lower():
                    value = candidate
                    break
            coerced = coerce_value(value, column.data_type, column.name)
            if coerced is None and not column.nullable:
                raise SchemaError(
                    f"column {column.name!r} of table {self.name!r} is NOT NULL"
                )
            validated[column.name] = coerced
        if self.primary_key is not None:
            key = validated[self.primary_key]
            if key is None:
                raise SchemaError(f"primary key {self.primary_key!r} may not be NULL")
            if isinstance(key, float) and math.isnan(key):
                # A NaN equals no key, itself included: no ``=`` could reach it.
                raise SchemaError(f"primary key {self.primary_key!r} may not be NaN")
        return validated

    def row_size(self, row: Mapping[str, object]) -> int:
        """Approximate serialized size of a row in bytes."""
        return sum(estimate_value_size(row.get(column.name)) for column in self.columns) + 8

    def project(self, row: Mapping[str, object], column_names: Iterable[str]) -> dict[str, object]:
        """Project a row onto a subset of columns (validating their existence)."""
        return {self.column(name).name: row.get(self.column(name).name) for name in column_names}

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.data_type.value}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols}, pk={self.primary_key!r})"
