"""A server serves a view — and only a view.

A :class:`~repro.serve.server.ViewServer` is built from a live
:class:`~repro.core.engine.ClassificationView`, by ``SERVE VIEW`` (the
engine's ``serve``) or warm-started by ``RESTORE VIEW`` (``ViewServer.restore``,
which the engine's ``restore`` calls).  Every write it applies is a base-table
row a trigger saw, featurized by the view's feature function, and every
serving option has one name from the ``WITH`` clause down to the server's
keyword.  This walk keeps a second way in — a server without a view, a
pre-featurized ``(id, features)`` row, a second spelling of an option — from
coming back.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import repro
from repro.core.engine import HazyEngine
from repro.serve.server import ViewServer

ROOT = Path(repro.__file__).parent


def parse(relative: str) -> ast.Module:
    return ast.parse((ROOT / relative).read_text(encoding="utf-8"))


class Constructions(ast.NodeVisitor):
    """Every ``ViewServer(...)`` call — and, inside ``class ViewServer``, every
    ``cls(...)`` — as ``(module, enclosing class.function)``."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "ViewServer" or (name == "cls" and self.scope[:1] == ["ViewServer"]):
            self.found.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_the_engine_and_restore_construct_a_server():
    found = []
    for path in sorted(ROOT.rglob("*.py")):
        visitor = Constructions(path.relative_to(ROOT).as_posix())
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.extend(visitor.found)
    assert sorted(found) == [
        ("core/engine.py", "HazyEngine.serve"),
        ("serve/server.py", "ViewServer.restore"),
    ]


def test_a_server_is_built_from_a_view():
    parameters = list(inspect.signature(ViewServer).parameters)
    assert parameters[:3] == ["view", "store_factory", "maintainer_factory"]


def test_no_row_is_a_pre_featurized_pair():
    branches = []
    for relative in ("core/writes.py", "persist/wal.py"):
        for node in ast.walk(parse(relative)):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and "tuple" in {getattr(n, "id", None) for n in ast.walk(node.args[1])}
            ):
                branches.append(f"{relative}:{node.lineno}")
    assert branches == []


def test_the_server_never_asks_whether_it_has_a_view():
    comparisons = []
    for node in ast.walk(parse("serve/server.py")):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(getattr(operand, "attr", None) == "_view" for operand in operands) and any(
                isinstance(operand, ast.Constant) and operand.value is None for operand in operands
            ):
                comparisons.append(node.lineno)
    assert comparisons == []


def test_every_serving_option_has_one_name():
    for gone in ("serve_view", "restore_view", "checkpoint_view"):
        assert not hasattr(HazyEngine, gone), gone
    keywords = {
        name
        for method in (HazyEngine.serve, HazyEngine.restore, ViewServer, ViewServer.restore)
        for name in inspect.signature(method).parameters
    }
    assert not keywords & {"restore_from", "num_shards", "read_batch_wait_s", "wal_dir"}
    # The server's options are the WITH clause's, name for name.
    options = set(inspect.signature(ViewServer).parameters) - {
        "view",
        "store_factory",
        "maintainer_factory",
        "resume",
    }
    assert options == set(HazyEngine._SERVER_OPTIONS)
