"""One golden ledger for the three tables that pin the system's shape.

Each table is a JSON file of its current cells and an append-only move log::

    {"cells": {name: value, ...}, "moves": [{"pr": n, "rule": name, "cells": [...]}, ...]}

- ``plans`` (``db/select_plan_golden.json``): every SELECT shape's ``EXPLAIN``
  rows and every planner refusal, ``tests/db/test_select_plan_table.py``;
- ``explain`` (``db/view_explain_golden.json``): every classification-view
  read's ``EXPLAIN`` rows in two configurations, ``tests/db/test_view_explain_table.py``;
- ``ledger`` (``core/operation_ledger_golden.json``): every cell of the
  maintainer matrix after one fixed stream, ``tests/core/test_operation_ledger.py``.

A test compares what the code produces now with :func:`cells`, cell by cell and
exactly (:func:`bits`: a float is equal to the bit).  A change that moves cells
on purpose re-records the table and names the rules that claim them::

    PYTHONPATH=src:. python tests/golden.py plans            # what moved, and which rules claim it
    PYTHONPATH=src:. python tests/golden.py plans --record --pr N --rule estimate_only

A re-record refuses, writing nothing, unless every changed cell is claimed by a
rule it names: a predicate over the cell's value before and after, registered
once in :data:`RULES`.  It prints the ``before → after`` list a change log
quotes, writes the fresh cells and appends one move per rule that claimed a cell.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import re
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent

#: table -> (golden file under ``tests/``, the test module whose ``golden_table()``
#: produces its fresh cells).
TABLES = {
    "plans": ("db/select_plan_golden.json", "tests.db.test_select_plan_table"),
    "explain": ("db/view_explain_golden.json", "tests.db.test_view_explain_table"),
    "ledger": ("core/operation_ledger_golden.json", "tests.core.test_operation_ledger"),
}

Rule = Callable[[object, object], bool]

#: name -> a predicate over a cell's value before and after a move (None: no such cell).
RULES: dict[str, Rule] = {}


def path(table: str) -> Path:
    return ROOT / TABLES[table][0]


def load(table: str) -> dict:
    """The golden document of ``table``: ``{"cells": ..., "moves": ...}``."""
    return json.loads(path(table).read_text())


def cells(table: str) -> dict[str, object]:
    """The committed current cells of ``table``."""
    return load(table)["cells"]


def produce(table: str) -> dict[str, object]:
    """The cells of ``table`` as the code produces them now."""
    return importlib.import_module(TABLES[table][1]).golden_table()


def bits(value: object) -> object:
    """``value`` with every float as its ``repr``, so equality is equality to the bit."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return value


def dumps(value: object, indent: int = 0) -> str:
    """JSON one row a line: a list of scalars on one line, any other container
    one item a line."""
    if isinstance(value, dict):
        items = [f"{json.dumps(key)}: {dumps(item, indent + 1)}" for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, list) and any(isinstance(item, (list, dict)) for item in value):
        items = [dumps(item, indent + 1) for item in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    pad = " " * (indent + 1)
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(items) + f"\n{' ' * indent}{brackets[1]}"


# -- rules ------------------------------------------------------------------------------------


def rule(predicate: Rule) -> Rule:
    """Register ``predicate`` in :data:`RULES` under its name."""
    RULES[predicate.__name__] = predicate
    return predicate


def _rows(value: object) -> list[list] | None:
    """``value`` as ``EXPLAIN`` rows ``[node, estimated_seconds, detail]``, or None."""
    if isinstance(value, list) and all(isinstance(row, list) and len(row) == 3 for row in value):
        return value
    return None


def _same_nodes(before: object, after: object) -> bool:
    old, new = _rows(before), _rows(after)
    return old is not None and new is not None and [r[0] for r in old] == [r[0] for r in new]


@rule
def added(before: object, after: object) -> bool:
    """A cell the table did not hold."""
    return before is None


@rule
def estimate_only(before: object, after: object) -> bool:
    """The same nodes and the same detail words: estimates, and the numbers a
    detail quotes (an index probe's ``~N of M rows``), moved."""

    def words(rows: list[list]) -> list[str]:
        return [re.sub(r"\d+", "#", row[2]) for row in rows]

    return _same_nodes(before, after) and words(before) == words(after)


@rule
def estimate_and_detail(before: object, after: object) -> bool:
    """The same nodes: estimates and details moved."""
    return _same_nodes(before, after)


@rule
def literal_spelling(before: object, after: object) -> bool:
    """Only how node labels spell NULL, TRUE and FALSE moved."""

    def spelled(rows: list[list]) -> list[list]:
        def sql(node: str) -> str:
            for python, literal in (("None", "NULL"), ("True", "TRUE"), ("False", "FALSE")):
                node = re.sub(rf"\b{python}\b", literal, node)
            return node

        return [[sql(row[0]), *row[1:]] for row in rows]

    old, new = _rows(before), _rows(after)
    return old is not None and new is not None and spelled(old) == spelled(new)


def _without(rows: list[list], dropped: set[str]) -> list[list]:
    """``rows`` with each conjunct in ``dropped`` that the node right below its
    ``Filter`` names out of that ``Filter``; a ``Filter`` left empty goes, and
    its subtree moves up one level."""
    kept_rows: list[list] = []
    cut = None  # the indent of a dropped Filter while in its subtree
    for at, (node, *rest) in enumerate(rows):
        indent = len(node) - len(node.lstrip())
        if cut is not None and indent > cut:
            kept_rows.append([node[2:], *rest])
            continue
        cut = None
        if node.lstrip().startswith("Filter("):
            child = rows[at + 1][0]
            conjuncts = node.strip()[len("Filter(") : -1].split(" AND ")
            kept = [c for c in conjuncts if c not in dropped or c not in child]
            if not kept:
                cut = indent
                continue
            node = f"{' ' * indent}Filter({' AND '.join(kept)})"
        kept_rows.append([node, *rest])
    return kept_rows


@rule
def filter_conjunct_dropped(before: object, after: object) -> bool:
    """A ``Filter`` lost conjuncts the node right below it names (and answers);
    one left empty went, its subtree one level up."""
    old, new = _rows(before), _rows(after)
    if old is None or new is None:
        return False
    named = {
        conjunct
        for node, below in zip(old, old[1:])
        if node[0].lstrip().startswith("Filter(")
        for conjunct in node[0].strip()[len("Filter(") : -1].split(" AND ")
        if conjunct in below[0]
    }
    return any(
        _without(old, set(dropped)) == new
        for size in range(1, len(named) + 1)
        for dropped in itertools.combinations(sorted(named), size)
    )


@rule
def probe_batch_read(before: object, after: object) -> bool:
    """A join's ``ViewScan`` of the view became one batched point read of the
    probe keys (estimated ``None``); every other row stayed."""
    old, new = _rows(before), _rows(after)
    if old is None or new is None or len(old) != len(new):
        return False
    moved = [(was, now) for was, now in zip(old, new) if was != now]
    if len(moved) != 1:
        return False
    ((was, now),) = moved
    batch = re.sub(r"ViewScan\((\w+)\)", r"ViewPointRead(\1, batch)", was[0])
    return batch != was[0] and now[:2] == [batch, None]


@rule
def refusal_message(before: object, after: object) -> bool:
    """A refusal ``[class, message, position, token]`` kept all but its message."""

    def refusal(value: object) -> bool:
        return isinstance(value, list) and len(value) == 4 and isinstance(value[0], str)

    return refusal(before) and refusal(after) and [before[0], *before[2:]] == [after[0], *after[2:]]


@rule
def ledger_tags(before: object, after: object) -> bool:
    """The same sections, tags and counters: only their values (and digests) moved."""

    def shape(value: object) -> object:
        if isinstance(value, dict):
            return {key: shape(item) for key, item in value.items()}
        return None

    return isinstance(before, dict) and isinstance(after, dict) and shape(before) == shape(after)


# -- record -----------------------------------------------------------------------------------


class UnclaimedMove(ValueError):
    """A re-record moved a cell no named rule claims."""


def changes(recorded: dict, fresh: dict) -> list[tuple[str, object, object]]:
    """``(cell, before, after)`` for every cell that moved, appeared or went."""
    names = [*fresh, *(name for name in recorded if name not in fresh)]
    return [
        (name, recorded.get(name), fresh.get(name))
        for name in names
        if bits(recorded.get(name)) != bits(fresh.get(name))
    ]


def claims(before: object, after: object, rules=RULES) -> list[str]:
    """The rules among ``rules`` that claim a cell's move from ``before`` to ``after``."""
    return [name for name in rules if RULES[name](before, after)]


def _any_claim(before: object, after: object) -> str:
    return ", ".join(claims(before, after)) or "no rule"


def describe(name: str, before: object, after: object, rule_name: str) -> list[str]:
    """The ``before → after`` lines of one moved cell."""
    lines = [f"{name}  [{rule_name}]"]
    if isinstance(before, dict) and isinstance(after, dict):
        for section in sorted({*before, *after}):
            old, new = before.get(section), after.get(section)
            if isinstance(old, dict) and isinstance(new, dict):
                lines += [
                    f"  {section}.{key}: {old.get(key)} → {new.get(key)}"
                    for key in sorted({*old, *new})
                    if old.get(key) != new.get(key)
                ]
            elif old != new:
                lines.append(f"  {section}: {old} → {new}")
    elif _rows(before) is not None and _rows(after) is not None:
        lines += [f"  - {row}" for row in before if row not in after]
        lines += [f"  + {row}" for row in after if row not in before]
    else:
        lines.append(f"  {json.dumps(before)} → {json.dumps(after)}")
    return lines


def record(document: dict, fresh: dict, pr: int, rules: list[str]) -> tuple[dict, list[str]]:
    """``document`` re-recorded with ``fresh`` cells, and the ``before → after``
    lines of what moved.  Each changed cell goes to the first of ``rules`` that
    claims it; one unclaimed raises :class:`UnclaimedMove` naming every such cell
    and the rules that would claim it."""
    claimed: dict[str, list[str]] = {name: [] for name in rules}
    lines: list[str] = []
    unclaimed: list[str] = []
    for name, before, after in changes(document["cells"], fresh):
        by = claims(before, after, rules)
        if not by:
            unclaimed.append(f"{name} (claimed by: {_any_claim(before, after)})")
            continue
        claimed[by[0]].append(name)
        lines += describe(name, before, after, by[0])
    if unclaimed:
        raise UnclaimedMove("moved, and no rule named claims it:\n  " + "\n  ".join(unclaimed))
    moves = [{"pr": pr, "rule": name, "cells": names} for name, names in claimed.items() if names]
    return {"cells": fresh, "moves": document["moves"] + moves}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("table", choices=TABLES)
    parser.add_argument("--record", action="store_true", help="rewrite the golden file")
    parser.add_argument("--pr", type=int, help="the change a re-record's moves are logged under")
    parser.add_argument("--rule", action="append", default=[], choices=RULES, dest="rules")
    args = parser.parse_args(argv)
    if args.record and args.pr is None:
        parser.error("--record needs --pr")
    document = load(args.table)
    fresh = produce(args.table)
    if not args.record:
        moved = changes(document["cells"], fresh)
        for name, before, after in moved:
            for line in describe(name, before, after, _any_claim(before, after)):
                print(line)
        print(f"{len(moved)} of {len(fresh)} cells moved", file=sys.stderr)
        return 1 if moved else 0
    try:
        recorded, lines = record(document, fresh, args.pr, args.rules)
    except UnclaimedMove as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 1
    path(args.table).write_text(dumps(recorded) + "\n")
    for line in lines:
        print(line)
    print(f"recorded {len(fresh)} cells to {path(args.table)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
