"""Column data types and value coercion for the relational substrate."""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from repro.exceptions import SchemaError
from repro.linalg import SparseVector

__all__ = ["DataType", "KeyRange", "coerce_value", "estimate_value_size"]


class DataType(enum.Enum):
    """The column types the substrate supports.

    ``VECTOR`` holds a sparse feature vector — PostgreSQL-Hazy stores these as
    a user-defined type; here they are first-class column values.
    """

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    VECTOR = "vector"

    def __init__(self, name: str) -> None:
        #: The python type stored values of this column type are spelled in
        #: (exactly — a bool is not INTEGER's spelling); None for VECTOR.
        self.spelling = {"integer": int, "float": float, "text": str, "boolean": bool}.get(name)

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve a SQL type name (``int``, ``double``, ``varchar`` ...)."""
        key = name.strip().lower()
        aliases = {
            "int": cls.INTEGER,
            "integer": cls.INTEGER,
            "bigint": cls.INTEGER,
            "serial": cls.INTEGER,
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "numeric": cls.FLOAT,
            "text": cls.TEXT,
            "varchar": cls.TEXT,
            "char": cls.TEXT,
            "string": cls.TEXT,
            "bool": cls.BOOLEAN,
            "boolean": cls.BOOLEAN,
            "vector": cls.VECTOR,
            "feature_vector": cls.VECTOR,
        }
        if key not in aliases:
            raise SchemaError(f"unknown SQL type {name!r}")
        return aliases[key]


def coerce_value(value: object, data_type: DataType, column_name: str = "?") -> object:
    """Coerce ``value`` to the python representation of ``data_type``.

    ``None`` passes through for every type (NULL).  Raises
    :class:`~repro.exceptions.SchemaError` when the value cannot represent the
    declared type.
    """
    if value is None:
        return None
    try:
        if data_type is DataType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not value.is_integer():
                raise SchemaError(
                    f"column {column_name!r}: cannot store non-integral {value!r} as INTEGER"
                )
            return int(value)
        if data_type is DataType.FLOAT:
            return float(value)
        if data_type is DataType.TEXT:
            return str(value)
        if data_type is DataType.BOOLEAN:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1"):
                    return True
                if lowered in ("false", "f", "0"):
                    return False
                raise SchemaError(f"column {column_name!r}: invalid boolean literal {value!r}")
            return bool(value)
        if data_type is DataType.VECTOR:
            if isinstance(value, SparseVector):
                return value
            if isinstance(value, dict):
                return SparseVector(value)
            raise SchemaError(
                f"column {column_name!r}: expected a SparseVector, got {type(value).__name__}"
            )
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"column {column_name!r}: cannot coerce {value!r} to {data_type.value}"
        ) from exc
    raise SchemaError(f"unhandled data type {data_type!r}")  # pragma: no cover


def estimate_value_size(value: object) -> int:
    """Approximate on-disk size in bytes, used for page capacity accounting."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace")) + 4
    if isinstance(value, SparseVector):
        return value.approx_size_bytes()
    return 16


@dataclass(frozen=True)
class KeyRange:
    """An interval over one key column, ``None`` bounds meaning unbounded.

    This is how a range travels from a plan node to whoever answers it — a
    secondary index, a view's reader, a shard, a maintainer — and
    :meth:`tighten` is the one place ``WHERE`` conjuncts on a column become
    one.  Keys and bounds compare with Python semantics.
    """

    low: object = None
    high: object = None
    include_low: bool = True
    include_high: bool = True

    @classmethod
    def tighten(cls, conjuncts: Iterable[tuple[str, object]]) -> "KeyRange | None":
        """The interval ``(operator, value)`` conjuncts (``=``, ``<``, ``<=``,
        ``>``, ``>=``) on one column admit together.

        Returns None when any bound is NULL: no key satisfies an ordering
        comparison with NULL, and ``col = NULL`` matches only NULL rows, which
        no index stores — the caller must not answer from an interval.  Two
        bounds on the same side that cannot be ordered against each other
        raise :class:`TypeError`.
        """
        low = high = None
        include_low = include_high = True
        for operator, value in conjuncts:
            if value is None:
                return None
            if operator in ("=", ">", ">="):
                strict = operator == ">"
                if low is None or value > low or (value == low and strict):
                    low, include_low = value, not strict
            if operator in ("=", "<", "<="):
                strict = operator == "<"
                if high is None or value < high or (value == high and strict):
                    high, include_high = value, not strict
        return cls(low, high, include_low, include_high)

    def contains(self, key: object) -> bool:
        """Whether ``key`` lies inside the interval."""
        low, high = self.low, self.high
        if low is not None and (key < low or (key == low and not self.include_low)):
            return False
        if high is not None and (key > high or (key == high and not self.include_high)):
            return False
        return True
