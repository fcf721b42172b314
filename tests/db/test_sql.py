"""Unit tests for the SQL lexer, parser and executor."""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.db.sql.ast import (
    PLACEHOLDER,
    Comparison,
    CreateClassificationView,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    Select,
    Update,
)
from repro.db.sql.lexer import TokenType, tokenize
from repro.db.sql.parser import parse
from repro.exceptions import SQLExecutionError, SQLSyntaxError


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT id FROM papers")
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[-1].type is TokenType.END

    def test_numbers(self):
        tokens = tokenize("42 -3.5 1e-4")
        assert [t.value for t in tokens[:-1]] == ["42", "-3.5", "1e-4"]
        assert all(t.type is TokenType.NUMBER for t in tokens[:-1])

    def test_strings_with_escaped_quotes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_operators(self):
        tokens = tokenize("a >= 1 AND b <> 2")
        operators = [t.value for t in tokens if t.type is TokenType.OPERATOR]
        assert operators == [">=", "<>"]

    def test_placeholders(self):
        tokens = tokenize("VALUES (?, ?)")
        assert sum(1 for t in tokens if t.type is TokenType.PLACEHOLDER) == 2

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT * FROM t -- trailing comment\n")
        assert all(t.type is not TokenType.IDENTIFIER or t.value == "t" for t in tokens)

    def test_unknown_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @foo")


class TestParser:
    def test_create_table(self):
        statement = parse(
            "CREATE TABLE papers (id integer PRIMARY KEY, title text, score float NOT NULL)"
        )
        assert isinstance(statement, CreateTable)
        assert statement.table == "papers"
        assert statement.columns[0].primary_key
        assert not statement.columns[1].primary_key
        assert not statement.columns[2].nullable

    def test_drop_table(self):
        statement = parse("DROP TABLE papers")
        assert isinstance(statement, DropTable)
        assert statement.table == "papers"

    def test_insert_multiple_rows(self):
        statement = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(statement, Insert)
        assert statement.rows == ((1, "x"), (2, "y"))

    def test_insert_with_placeholders(self):
        statement = parse("INSERT INTO t (a) VALUES (?)")
        assert statement.rows[0][0] is PLACEHOLDER

    def test_insert_without_column_list(self):
        statement = parse("INSERT INTO t VALUES (1, 2)")
        assert statement.columns == ()

    def test_select_star(self):
        statement = parse("SELECT * FROM t")
        assert isinstance(statement, Select)
        assert statement.columns == ("*",)
        assert not statement.count

    def test_select_count(self):
        statement = parse("SELECT COUNT(*) FROM t WHERE a = 1")
        assert statement.count
        assert statement.where == (Comparison("a", "=", 1),)

    def test_select_with_order_and_limit(self):
        statement = parse("SELECT a, b FROM t WHERE a >= 2 AND b != 'x' ORDER BY a DESC LIMIT 5")
        assert statement.columns == ("a", "b")
        assert statement.order_by == "a"
        assert statement.descending
        assert statement.limit == 5
        assert statement.where[1] == Comparison("b", "!=", "x")

    def test_select_null_and_boolean_literals(self):
        statement = parse("SELECT * FROM t WHERE a = NULL AND b = true")
        assert statement.where[0].value is None
        assert statement.where[1].value is True

    def test_update(self):
        statement = parse("UPDATE t SET a = 5, b = 'x' WHERE id = 3")
        assert isinstance(statement, Update)
        assert statement.assignments == (("a", 5), ("b", "x"))

    def test_delete(self):
        statement = parse("DELETE FROM t WHERE id = 1")
        assert isinstance(statement, Delete)

    def test_trailing_semicolon_allowed(self):
        assert isinstance(parse("SELECT * FROM t;"), Select)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t garbage extra")

    def test_unsupported_statement(self):
        with pytest.raises(SQLSyntaxError):
            parse("VACUUM")

    def test_limit_requires_integer(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t LIMIT 'x'")

    def test_create_classification_view_full_form(self):
        statement = parse(
            """
            CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
            ENTITIES FROM Papers KEY id
            LABELS FROM Paper_Area LABEL l
            EXAMPLES FROM Example_Papers KEY id LABEL l
            FEATURE FUNCTION tf_bag_of_words
            USING SVM
            """
        )
        assert isinstance(statement, CreateClassificationView)
        assert statement.view_name == "Labeled_Papers"
        assert statement.entities_table == "Papers"
        assert statement.labels_table == "Paper_Area"
        assert statement.examples_table == "Example_Papers"
        assert statement.feature_function == "tf_bag_of_words"
        assert statement.method == "SVM"

    def test_create_classification_view_without_labels_or_method(self):
        statement = parse(
            "CREATE CLASSIFICATION VIEW v KEY id "
            "ENTITIES FROM e KEY id "
            "EXAMPLES FROM ex KEY id LABEL l "
            "FEATURE FUNCTION tf_bag_of_words"
        )
        assert statement.labels_table is None
        assert statement.method is None

    def test_create_classification_view_missing_clause(self):
        with pytest.raises(SQLSyntaxError):
            parse("CREATE CLASSIFICATION VIEW v KEY id ENTITIES FROM e KEY id")


class TestExecutor:
    def make_db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE papers (id integer PRIMARY KEY, title text, year integer)")
        db.executemany(
            "INSERT INTO papers (id, title, year) VALUES (?, ?, ?)",
            [(1, "hazy", 2011), (2, "mauvedb", 2006), (3, "mcdb", 2008)],
        )
        return db

    def test_create_and_insert_and_count(self):
        db = self.make_db()
        assert db.execute("SELECT COUNT(*) FROM papers").scalar() == 3

    def test_select_where(self):
        db = self.make_db()
        rows = db.execute("SELECT title FROM papers WHERE year >= 2008").rows
        assert {row["title"] for row in rows} == {"hazy", "mcdb"}

    def test_select_order_and_limit(self):
        db = self.make_db()
        rows = db.execute("SELECT id FROM papers ORDER BY year DESC LIMIT 2").rows
        assert [row["id"] for row in rows] == [1, 3]

    def test_select_unknown_column_raises(self):
        db = self.make_db()
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT venue FROM papers")

    def test_select_unknown_table_raises(self):
        with pytest.raises(SQLExecutionError):
            self.make_db().execute("SELECT * FROM nope")

    def test_update(self):
        db = self.make_db()
        result = db.execute("UPDATE papers SET year = 2012 WHERE id = 1")
        assert result.rowcount == 1
        assert db.execute("SELECT year FROM papers WHERE id = 1").rows[0]["year"] == 2012

    def test_delete(self):
        db = self.make_db()
        assert db.execute("DELETE FROM papers WHERE year < 2010").rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM papers").scalar() == 1

    def test_placeholder_binding_in_where(self):
        db = self.make_db()
        rows = db.execute("SELECT id FROM papers WHERE title = ?", ("mcdb",)).rows
        assert rows == [{"id": 3}]

    def test_missing_parameters_raise(self):
        db = self.make_db()
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO papers (id, title, year) VALUES (?, ?, ?)", (9,))

    def test_insert_arity_mismatch(self):
        db = self.make_db()
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO papers (id, title) VALUES (1, 'x', 2000)")

    def test_drop_table(self):
        db = self.make_db()
        db.execute("DROP TABLE papers")
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT * FROM papers")

    def test_composite_primary_key_rejected(self):
        db = Database()
        with pytest.raises(SQLExecutionError):
            db.execute("CREATE TABLE t (a integer PRIMARY KEY, b integer PRIMARY KEY)")

    def test_classification_view_requires_engine(self):
        db = self.make_db()
        db.execute("CREATE TABLE examples (id integer PRIMARY KEY, label integer)")
        with pytest.raises(SQLExecutionError):
            db.execute(
                "CREATE CLASSIFICATION VIEW v KEY id ENTITIES FROM papers KEY id "
                "EXAMPLES FROM examples KEY id LABEL label FEATURE FUNCTION tf_bag_of_words"
            )

    def test_scalar_on_empty_result_raises(self):
        db = self.make_db()
        result = db.execute("SELECT * FROM papers WHERE id = 99")
        with pytest.raises(SQLExecutionError):
            result.scalar()

    def test_io_statistics_accumulate(self):
        db = self.make_db()
        before = db.stats.tuples_read
        db.execute("SELECT COUNT(*) FROM papers")
        assert db.stats.tuples_read > before
