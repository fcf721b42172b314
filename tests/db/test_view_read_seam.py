"""``repro.db`` never looks inside a classification view to read it.

A view hands out one reader (``ClassificationView.reader()``,
:mod:`repro.core.reads`) that answers its reads, prices them and names the
ledger they charge.  The SQL layer — which may import neither ``repro.core``
nor ``repro.serve`` — therefore has no business with a view's ``server``, a
server's ``shards`` or a shard's ``maintainer``: 30 such attribute reads sat
in ``db/sql/plan.py`` and ``db/sql/planner.py`` before PR 20, each one half of
a "served?" fork.  This walk keeps them from coming back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.db

FORBIDDEN = {"server", "_server", "shards", "maintainer"}


def test_no_module_under_repro_db_reaches_into_a_views_server_shards_or_maintainer():
    root = Path(repro.db.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 20, "the walk must cover the package"
    found = [
        f"{path.relative_to(root)}:{node.lineno}: .{node.attr}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN
    ]
    assert found == []
