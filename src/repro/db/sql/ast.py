"""AST node dataclasses for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Statement",
    "ColumnDefinition",
    "CreateTable",
    "DropTable",
    "CreateIndex",
    "DropIndex",
    "Insert",
    "Comparison",
    "Join",
    "Select",
    "Update",
    "Delete",
    "CreateClassificationView",
    "ServeView",
    "StopServing",
    "CheckpointView",
    "RestoreView",
    "Explain",
]


@dataclass(frozen=True)
class Statement:
    """Base class for parsed statements.

    ``placeholders`` is how many ``?`` parameters the statement binds, counted
    once by the parser; the executor refuses any other number before it plans
    or reads anything.
    """

    placeholders: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class ColumnDefinition:
    """One column in a ``CREATE TABLE``: name, SQL type name, constraints."""

    name: str
    type_name: str
    nullable: bool = True
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable(Statement):
    """``CREATE TABLE name (columns...)``."""

    table: str
    columns: tuple[ColumnDefinition, ...]


@dataclass(frozen=True)
class DropTable(Statement):
    """``DROP TABLE name``."""

    table: str


@dataclass(frozen=True)
class CreateIndex(Statement):
    """``CREATE INDEX name ON table (col[, col...])`` — a secondary B+-tree index.

    A single column builds a value-keyed index; multiple columns build a
    composite index keyed on the tuple of values (leftmost-prefix matching in
    the planner).  ``table_position``/``column_positions`` carry the source
    offsets of the table and column tokens for machine-readable execution
    diagnostics.
    """

    name: str
    table: str
    columns: tuple[str, ...]
    table_position: int | None = field(default=None, compare=False)
    column_positions: tuple[int | None, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class DropIndex(Statement):
    """``DROP INDEX name`` — detach a secondary index (maintenance stops)."""

    name: str


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO table (columns) VALUES (...), (...)``.

    Values may contain the sentinel :data:`PLACEHOLDER` for prepared-statement
    parameters bound at execution time.
    """

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]


#: Sentinel used in Insert/Comparison values for ``?`` placeholders.
PLACEHOLDER = object()


@dataclass(frozen=True)
class Comparison:
    """A simple predicate ``column op literal`` (op in =, !=, <, <=, >, >=).

    ``column`` may be qualified (``t.id``) in join queries.  ``position`` is
    the character offset of the column token in the source text (excluded
    from equality) so the planner can attach machine-readable diagnostics to
    semantic errors, mirroring :class:`~repro.exceptions.SQLSyntaxError`.
    """

    column: str
    operator: str
    value: object
    position: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Join:
    """``JOIN table ON left = right`` — a single inner equi-join.

    The two ON references may be qualified with either source's name; the
    planner resolves which side each belongs to.
    """

    table: str
    left_column: str
    right_column: str
    table_position: int | None = field(default=None, compare=False)
    left_position: int | None = field(default=None, compare=False)
    right_position: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Select(Statement):
    """``SELECT columns FROM table [JOIN t ON ...] [WHERE ...] [ORDER BY ...] [LIMIT n]``.

    ``column_positions`` parallels ``columns`` with each column token's
    character offset (empty for ``*`` / COUNT); positions are excluded from
    equality and exist only for plan-time diagnostics.
    """

    table: str
    columns: tuple[str, ...]  # ("*",) or explicit column names
    where: tuple[Comparison, ...] = ()
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None
    count: bool = False  # True for SELECT COUNT(*)
    join: Join | None = None
    column_positions: tuple[int, ...] = field(default=(), compare=False)
    order_by_position: int | None = field(default=None, compare=False)
    table_position: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE table SET col = value, ... [WHERE ...]``."""

    table: str
    assignments: tuple[tuple[str, object], ...]
    where: tuple[Comparison, ...] = ()


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: tuple[Comparison, ...] = ()


@dataclass(frozen=True)
class CreateClassificationView(Statement):
    """The model-based view DDL of the paper's Example 2.1.

    ::

        CREATE CLASSIFICATION VIEW Labeled_Papers KEY id
        ENTITIES FROM Papers KEY id
        LABELS FROM Paper_Area LABEL l
        EXAMPLES FROM Example_Papers KEY id LABEL l
        FEATURE FUNCTION tf_bag_of_words
        USING SVM
    """

    view_name: str
    view_key: str
    entities_table: str
    entities_key: str
    labels_table: str | None
    labels_column: str | None
    examples_table: str
    examples_key: str
    examples_label: str
    feature_function: str
    method: str | None = None


@dataclass(frozen=True)
class ServeView(Statement):
    """``SERVE VIEW name [WITH (option = literal, ...)]``.

    Puts a classification view behind the concurrent serving front-end;
    ``options`` carries the ``WITH`` clause verbatim (``shards``, ``wal``).
    """

    view: str
    options: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class StopServing(Statement):
    """``STOP SERVING name`` — quiesce the server and hand the view back."""

    view: str


@dataclass(frozen=True)
class CheckpointView(Statement):
    """``CHECKPOINT VIEW name TO 'path' [WITH (...)]`` — consistent snapshot of a served view.

    Options: ``incremental = true`` rewrites only shards whose epoch moved
    since the parent checkpoint; ``parent = 'path'`` overrides the default
    parent (the server's last checkpoint).
    """

    view: str
    path: str
    options: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class RestoreView(Statement):
    """``RESTORE VIEW name FROM 'path' [WITH (...)]`` — warm-start serving."""

    view: str
    path: str
    options: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <statement>``.

    Plain EXPLAIN prints the deterministic cost-model plan without executing
    anything; EXPLAIN ANALYZE executes the plan and reports actual next to
    estimated simulated seconds per plan node (SELECT only).
    """

    statement: Statement
    analyze: bool = False
