"""Unit tests for column types, value coercion, and table schemas."""

from __future__ import annotations

import math

import pytest

from repro.db.schema import Column, TableSchema
from repro.db.types import DataType, coerce_value, estimate_value_size
from repro.exceptions import SchemaError
from repro.linalg import SparseVector


class TestDataType:
    def test_aliases_resolve(self):
        assert DataType.from_name("int") is DataType.INTEGER
        assert DataType.from_name("VARCHAR") is DataType.TEXT
        assert DataType.from_name("double") is DataType.FLOAT
        assert DataType.from_name("bool") is DataType.BOOLEAN
        assert DataType.from_name("vector") is DataType.VECTOR

    def test_unknown_type_raises(self):
        with pytest.raises(SchemaError):
            DataType.from_name("geometry")


class TestCoercion:
    def test_none_passes_through(self):
        assert coerce_value(None, DataType.INTEGER) is None

    def test_integer_coercion(self):
        assert coerce_value("42", DataType.INTEGER) == 42
        assert coerce_value(7.0, DataType.INTEGER) == 7

    def test_non_integral_float_rejected_for_integer(self):
        with pytest.raises(SchemaError):
            coerce_value(1.5, DataType.INTEGER)

    def test_float_coercion(self):
        assert coerce_value("2.5", DataType.FLOAT) == 2.5

    def test_text_coercion(self):
        assert coerce_value(10, DataType.TEXT) == "10"

    def test_boolean_from_strings(self):
        assert coerce_value("true", DataType.BOOLEAN) is True
        assert coerce_value("F", DataType.BOOLEAN) is False
        with pytest.raises(SchemaError):
            coerce_value("maybe", DataType.BOOLEAN)

    def test_vector_accepts_sparse_and_dict(self):
        assert isinstance(coerce_value(SparseVector({0: 1.0}), DataType.VECTOR), SparseVector)
        assert coerce_value({1: 2.0}, DataType.VECTOR) == SparseVector({1: 2.0})

    def test_vector_rejects_other_types(self):
        with pytest.raises(SchemaError):
            coerce_value("not a vector", DataType.VECTOR)

    def test_bad_numeric_text_raises(self):
        with pytest.raises(SchemaError):
            coerce_value("abc", DataType.FLOAT)

    def test_size_estimates_are_positive_and_ordered(self):
        assert estimate_value_size(None) < estimate_value_size(1)
        assert estimate_value_size("a short string") > estimate_value_size(1)
        assert estimate_value_size(SparseVector({i: 1.0 for i in range(50)})) > estimate_value_size(
            SparseVector({0: 1.0})
        )


def paper_schema() -> TableSchema:
    return TableSchema(
        "papers",
        [
            Column("id", DataType.INTEGER, nullable=False),
            Column("title", DataType.TEXT),
            Column("cites", DataType.INTEGER),
        ],
        primary_key="id",
    )


class TestTableSchema:
    def test_requires_columns(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INTEGER), Column("A", DataType.TEXT)])

    def test_rejects_unknown_primary_key(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INTEGER)], primary_key="b")

    def test_invalid_column_name(self):
        with pytest.raises(SchemaError):
            Column("bad name!", DataType.TEXT)

    def test_column_lookup_case_insensitive(self):
        schema = paper_schema()
        assert schema.column("TITLE").name == "title"
        assert schema.has_column("Id")

    def test_validate_row_fills_missing_with_null(self):
        schema = paper_schema()
        row = schema.validate_row({"id": 1, "title": "Hazy"})
        assert row == {"id": 1, "title": "Hazy", "cites": None}

    def test_validate_row_rejects_unknown_columns(self):
        with pytest.raises(SchemaError):
            paper_schema().validate_row({"id": 1, "venue": "VLDB"})

    def test_validate_row_coerces_types(self):
        row = paper_schema().validate_row({"id": "5", "cites": "10"})
        assert row["id"] == 5
        assert row["cites"] == 10

    def test_not_null_enforced(self):
        schema = TableSchema(
            "t", [Column("a", DataType.INTEGER, nullable=False)], primary_key=None
        )
        with pytest.raises(SchemaError):
            schema.validate_row({})

    def test_primary_key_may_not_be_null(self):
        with pytest.raises(SchemaError):
            paper_schema().validate_row({"title": "no id"})

    @pytest.mark.parametrize("key", [float("nan"), math.nan, "nan", "NaN"])
    def test_primary_key_may_not_be_nan(self, key):
        schema = TableSchema("t", [Column("id", DataType.FLOAT)], primary_key="id")
        with pytest.raises(SchemaError, match="may not be NaN"):
            schema.validate_row({"id": key})

    def test_row_size_scales_with_content(self):
        schema = paper_schema()
        small = schema.row_size({"id": 1, "title": "x", "cites": 0})
        large = schema.row_size({"id": 1, "title": "x" * 500, "cites": 0})
        assert large > small

    def test_project(self):
        schema = paper_schema()
        row = schema.validate_row({"id": 1, "title": "Hazy"})
        assert schema.project(row, ["title"]) == {"title": "Hazy"}

    def test_column_names_in_order(self):
        assert paper_schema().column_names() == ["id", "title", "cites"]
