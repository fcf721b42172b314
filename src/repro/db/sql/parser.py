"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

from dataclasses import replace

from repro.db.sql.ast import (
    PLACEHOLDER,
    CheckpointView,
    ColumnDefinition,
    Comparison,
    CreateClassificationView,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Explain,
    Insert,
    Join,
    RestoreView,
    Select,
    ServeView,
    Statement,
    StopServing,
    Update,
)
from repro.db.sql.lexer import Token, TokenType, tokenize
from repro.exceptions import SQLSyntaxError

__all__ = ["parse"]


def parse(sql: str) -> Statement:
    """Parse a single SQL statement into an AST node."""
    return _Parser(tokenize(sql)).parse_statement()


class _Parser:
    """A hand-written recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._position = 0
        self._placeholders = 0

    # -- token utilities ----------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.type is not TokenType.END:
            self._position += 1
        return token

    def _expect_keyword(self, *keywords: str) -> Token:
        token = self._advance()
        if not token.matches_keyword(*keywords):
            raise SQLSyntaxError(
                f"expected {' or '.join(k.upper() for k in keywords)} "
                f"but found {token.value!r} at position {token.position}",
                position=token.position,
                token=token.value,
            )
        return token

    def _expect_punctuation(self, symbol: str) -> Token:
        token = self._advance()
        if token.type is not TokenType.PUNCTUATION or token.value != symbol:
            raise SQLSyntaxError(
                f"expected {symbol!r} but found {token.value!r} at position {token.position}",
                position=token.position,
                token=token.value,
            )
        return token

    def _expect_identifier(self) -> str:
        token = self._advance()
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise SQLSyntaxError(
                f"expected an identifier but found {token.value!r} at position {token.position}",
                position=token.position,
                token=token.value,
            )
        return token.value

    def _expect_string(self, what: str) -> str:
        token = self._advance()
        if token.type is not TokenType.STRING:
            raise SQLSyntaxError(
                f"expected a string literal ({what}) but found {token.value!r} "
                f"at position {token.position}",
                position=token.position,
                token=token.value,
            )
        return token.value

    def _parse_table_name(self) -> tuple[str, int]:
        """A table reference (``papers`` or the dotted ``system.metrics``)
        plus its position.  One dotted segment is allowed, matching the
        ``system.*`` virtual-table namespace; deeper nesting is a syntax
        error at the second dot's identifier."""
        token = self._peek()
        name = self._expect_identifier()
        if self._accept_punctuation("."):
            name = f"{name}.{self._expect_identifier()}"
        return name, token.position

    def _parse_column_reference(self) -> tuple[str, int]:
        """An optionally qualified column (``id`` or ``t.id``) plus its position."""
        token = self._peek()
        name = self._expect_identifier()
        if self._accept_punctuation("."):
            name = f"{name}.{self._expect_identifier()}"
        return name, token.position

    def _accept_keyword(self, *keywords: str) -> bool:
        if self._peek().matches_keyword(*keywords):
            self._advance()
            return True
        return False

    def _accept_punctuation(self, symbol: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCTUATION and token.value == symbol:
            self._advance()
            return True
        return False

    # -- literals -----------------------------------------------------------------------

    def _parse_literal(self) -> object:
        token = self._advance()
        if token.type is TokenType.PLACEHOLDER:
            self._placeholders += 1
            return PLACEHOLDER
        if token.type is TokenType.NUMBER:
            text = token.value
            if any(c in text for c in ".eE"):
                return float(text)
            return int(text)
        if token.type is TokenType.STRING:
            return token.value
        if token.matches_keyword("null"):
            return None
        if token.matches_keyword("true"):
            return True
        if token.matches_keyword("false"):
            return False
        raise SQLSyntaxError(
            f"expected a literal but found {token.value!r} at position {token.position}",
            position=token.position,
            token=token.value,
        )

    # -- statements ------------------------------------------------------------------------

    def parse_statement(self) -> Statement:
        """Parse exactly one statement, ensure nothing trails it, and count
        its ``?`` placeholders."""
        statement = self._parse_statement_body()
        self._accept_punctuation(";")
        trailing = self._peek()
        if trailing.type is not TokenType.END:
            raise SQLSyntaxError(
                f"unexpected trailing input {trailing.value!r} at position {trailing.position}",
                position=trailing.position,
                token=trailing.value,
            )
        if self._placeholders:
            statement = replace(statement, placeholders=self._placeholders)
        return statement

    def _parse_statement_body(self) -> Statement:
        token = self._peek()
        if token.matches_keyword("create"):
            return self._parse_create()
        if token.matches_keyword("drop"):
            return self._parse_drop()
        if token.matches_keyword("insert"):
            return self._parse_insert()
        if token.matches_keyword("select"):
            return self._parse_select()
        if token.matches_keyword("update"):
            return self._parse_update()
        if token.matches_keyword("delete"):
            return self._parse_delete()
        if token.matches_keyword("serve"):
            return self._parse_serve()
        if token.matches_keyword("stop"):
            return self._parse_stop_serving()
        if token.matches_keyword("checkpoint"):
            return self._parse_checkpoint()
        if token.matches_keyword("restore"):
            return self._parse_restore()
        if token.matches_keyword("explain"):
            self._advance()
            analyze = self._accept_keyword("analyze")
            return Explain(statement=self._parse_statement_body(), analyze=analyze)
        raise SQLSyntaxError(
            f"unsupported statement starting with {token.value!r} "
            f"at position {token.position}",
            position=token.position,
            token=token.value,
        )

    def _parse_create(self) -> Statement:
        self._expect_keyword("create")
        if self._peek().matches_keyword("classification"):
            return self._parse_create_classification_view()
        if self._peek().matches_keyword("index"):
            return self._parse_create_index()
        self._expect_keyword("table")
        table = self._expect_identifier()
        self._expect_punctuation("(")
        columns: list[ColumnDefinition] = []
        while True:
            name = self._expect_identifier()
            type_name = self._expect_identifier()
            nullable = True
            primary_key = False
            while True:
                if self._accept_keyword("not"):
                    self._expect_keyword("null")
                    nullable = False
                elif self._accept_keyword("primary"):
                    self._expect_keyword("key")
                    primary_key = True
                    nullable = False
                else:
                    break
            columns.append(ColumnDefinition(name, type_name, nullable, primary_key))
            if not self._accept_punctuation(","):
                break
        self._expect_punctuation(")")
        return CreateTable(table=table, columns=tuple(columns))

    def _parse_create_classification_view(self) -> CreateClassificationView:
        self._expect_keyword("classification")
        self._expect_keyword("view")
        view_name = self._expect_identifier()
        self._expect_keyword("key")
        view_key = self._expect_identifier()

        self._expect_keyword("entities")
        self._expect_keyword("from")
        entities_table = self._expect_identifier()
        self._expect_keyword("key")
        entities_key = self._expect_identifier()

        labels_table: str | None = None
        labels_column: str | None = None
        if self._accept_keyword("labels"):
            self._expect_keyword("from")
            labels_table = self._expect_identifier()
            self._expect_keyword("label")
            labels_column = self._expect_identifier()

        self._expect_keyword("examples")
        self._expect_keyword("from")
        examples_table = self._expect_identifier()
        self._expect_keyword("key")
        examples_key = self._expect_identifier()
        self._expect_keyword("label")
        examples_label = self._expect_identifier()

        self._expect_keyword("feature")
        self._expect_keyword("function")
        feature_function = self._expect_identifier()

        method: str | None = None
        if self._accept_keyword("using"):
            method = self._expect_identifier()

        return CreateClassificationView(
            view_name=view_name,
            view_key=view_key,
            entities_table=entities_table,
            entities_key=entities_key,
            labels_table=labels_table,
            labels_column=labels_column,
            examples_table=examples_table,
            examples_key=examples_key,
            examples_label=examples_label,
            feature_function=feature_function,
            method=method,
        )

    def _parse_create_index(self) -> CreateIndex:
        self._expect_keyword("index")
        name = self._expect_identifier()
        self._expect_keyword("on")
        table_token = self._peek()
        table = self._expect_identifier()
        self._expect_punctuation("(")
        columns: list[str] = []
        positions: list[int | None] = []
        while True:
            column_token = self._peek()
            columns.append(self._expect_identifier())
            positions.append(column_token.position)
            if not self._accept_punctuation(","):
                break
        self._expect_punctuation(")")
        return CreateIndex(
            name=name,
            table=table,
            columns=tuple(columns),
            table_position=table_token.position,
            column_positions=tuple(positions),
        )

    def _parse_drop(self) -> Statement:
        self._expect_keyword("drop")
        if self._accept_keyword("index"):
            return DropIndex(name=self._expect_identifier())
        self._expect_keyword("table")
        return DropTable(table=self._expect_identifier())

    def _parse_insert(self) -> Insert:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_identifier()
        columns: list[str] = []
        if self._accept_punctuation("("):
            while True:
                columns.append(self._expect_identifier())
                if not self._accept_punctuation(","):
                    break
            self._expect_punctuation(")")
        self._expect_keyword("values")
        rows: list[tuple[object, ...]] = []
        while True:
            self._expect_punctuation("(")
            values: list[object] = []
            while True:
                values.append(self._parse_literal())
                if not self._accept_punctuation(","):
                    break
            self._expect_punctuation(")")
            rows.append(tuple(values))
            if not self._accept_punctuation(","):
                break
        return Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def _parse_where(self) -> tuple[Comparison, ...]:
        if not self._accept_keyword("where"):
            return ()
        comparisons: list[Comparison] = []
        while True:
            column, position = self._parse_column_reference()
            operator_token = self._advance()
            if operator_token.type is not TokenType.OPERATOR:
                raise SQLSyntaxError(
                    f"expected a comparison operator but found {operator_token.value!r} "
                    f"at position {operator_token.position}",
                    position=operator_token.position,
                    token=operator_token.value,
                )
            operator = "!=" if operator_token.value == "<>" else operator_token.value
            value = self._parse_literal()
            comparisons.append(
                Comparison(column=column, operator=operator, value=value, position=position)
            )
            if not self._accept_keyword("and"):
                break
        return tuple(comparisons)

    def _parse_select(self) -> Select:
        self._expect_keyword("select")
        count = False
        columns: list[str] = []
        column_positions: list[int] = []
        if self._peek().matches_keyword("count"):
            self._advance()
            self._expect_punctuation("(")
            self._expect_punctuation("*")
            self._expect_punctuation(")")
            count = True
        elif self._accept_punctuation("*"):
            columns = ["*"]
        else:
            while True:
                column, position = self._parse_column_reference()
                columns.append(column)
                column_positions.append(position)
                if not self._accept_punctuation(","):
                    break
        self._expect_keyword("from")
        table, table_position = self._parse_table_name()
        join = self._parse_join()
        where = self._parse_where()
        order_by: str | None = None
        order_by_position: int | None = None
        descending = False
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by, order_by_position = self._parse_column_reference()
            if self._accept_keyword("desc"):
                descending = True
            else:
                self._accept_keyword("asc")
        limit: int | None = None
        if self._accept_keyword("limit"):
            literal_token = self._peek()
            literal = self._parse_literal()
            if type(literal) is not int or literal < 0:
                raise SQLSyntaxError(
                    "LIMIT expects a non-negative integer literal, found "
                    f"{literal_token.value!r} at position {literal_token.position}",
                    position=literal_token.position,
                    token=literal_token.value,
                )
            limit = literal
        return Select(
            table=table,
            columns=tuple(columns) if columns else ("*",),
            where=where,
            order_by=order_by,
            descending=descending,
            limit=limit,
            count=count,
            join=join,
            column_positions=tuple(column_positions) if not count and columns != ["*"] else (),
            order_by_position=order_by_position,
            table_position=table_position,
        )

    def _parse_join(self) -> Join | None:
        """``[INNER] JOIN table ON a.x = b.y`` — None when absent."""
        if self._accept_keyword("inner"):
            self._expect_keyword("join")
        elif not self._accept_keyword("join"):
            return None
        table, table_position = self._parse_table_name()
        self._expect_keyword("on")
        left_column, left_position = self._parse_column_reference()
        operator = self._advance()
        if operator.type is not TokenType.OPERATOR or operator.value != "=":
            raise SQLSyntaxError(
                f"JOIN supports equality conditions only; found {operator.value!r} "
                f"at position {operator.position}",
                position=operator.position,
                token=operator.value,
            )
        right_column, right_position = self._parse_column_reference()
        return Join(
            table=table,
            left_column=left_column,
            right_column=right_column,
            table_position=table_position,
            left_position=left_position,
            right_position=right_position,
        )

    def _parse_update(self) -> Update:
        self._expect_keyword("update")
        table = self._expect_identifier()
        self._expect_keyword("set")
        assignments: list[tuple[str, object]] = []
        while True:
            column = self._expect_identifier()
            operator = self._advance()
            if operator.type is not TokenType.OPERATOR or operator.value != "=":
                raise SQLSyntaxError(
                    f"expected '=' in SET clause but found {operator.value!r} "
                    f"at position {operator.position}",
                    position=operator.position,
                    token=operator.value,
                )
            assignments.append((column, self._parse_literal()))
            if not self._accept_punctuation(","):
                break
        where = self._parse_where()
        return Update(table=table, assignments=tuple(assignments), where=where)

    def _parse_delete(self) -> Delete:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_identifier()
        where = self._parse_where()
        return Delete(table=table, where=where)

    # -- serving statements ------------------------------------------------------------------

    def _parse_with_options(self) -> dict[str, object]:
        """``WITH (name = literal, ...)`` — empty dict when absent.  Each
        name is given once and each value is a literal: a repeated name or a
        ``?`` is a syntax error at its token."""
        if not self._accept_keyword("with"):
            return {}
        self._expect_punctuation("(")
        options: dict[str, object] = {}
        while True:
            name_token = self._peek()
            name = self._expect_identifier().lower()
            if name in options:
                raise SQLSyntaxError(
                    f"option {name!r} is given twice in WITH clause "
                    f"at position {name_token.position}",
                    position=name_token.position,
                    token=name_token.value,
                )
            operator = self._advance()
            if operator.type is not TokenType.OPERATOR or operator.value != "=":
                raise SQLSyntaxError(
                    f"expected '=' in WITH clause but found {operator.value!r} "
                    f"at position {operator.position}",
                    position=operator.position,
                    token=operator.value,
                )
            value = self._peek()
            if value.type is TokenType.PLACEHOLDER:
                raise SQLSyntaxError(
                    f"option {name!r} takes a literal, not '?', "
                    f"at position {value.position}",
                    position=value.position,
                    token=value.value,
                )
            options[name] = self._parse_literal()
            if not self._accept_punctuation(","):
                break
        self._expect_punctuation(")")
        return options

    def _parse_serve(self) -> ServeView:
        self._expect_keyword("serve")
        self._expect_keyword("view")
        view = self._expect_identifier()
        options = self._parse_with_options()
        return ServeView(view=view, options=options)

    def _parse_stop_serving(self) -> StopServing:
        self._expect_keyword("stop")
        self._expect_keyword("serving")
        return StopServing(view=self._expect_identifier())

    def _parse_checkpoint(self) -> CheckpointView:
        self._expect_keyword("checkpoint")
        self._expect_keyword("view")
        view = self._expect_identifier()
        self._expect_keyword("to")
        path = self._expect_string("checkpoint path")
        options = self._parse_with_options()
        return CheckpointView(view=view, path=path, options=options)

    def _parse_restore(self) -> RestoreView:
        self._expect_keyword("restore")
        self._expect_keyword("view")
        view = self._expect_identifier()
        self._expect_keyword("from")
        path = self._expect_string("checkpoint path")
        options = self._parse_with_options()
        return RestoreView(view=view, path=path, options=options)
