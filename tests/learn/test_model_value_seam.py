"""What keeps a model a value that the runtime cannot check.

A model version is a value: :class:`~repro.learn.sgd.SGDTrainer` builds it
once and every view, maintainer, water-band tracker, published epoch and
checkpoint holds that same object by reference.  The runtime refuses the
writes: ``LinearModel`` is a frozen dataclass (``FrozenInstanceError``) and
its weight array is read-only (``ValueError``), which
``tests/learn/test_model.py`` pins.  What it cannot refuse is a way around
either — ``object.__setattr__`` on a frozen instance, an array made writable
again — or a defensive copy, which a value never needs.  This walk keeps all
three out of the package.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
#: The receiver of a ``.copy()`` that copies a model.
MODEL_RECEIVER = re.compile(r'(model|final|\["current_model"\])$')


def modules() -> list[tuple[str, ast.AST]]:
    paths = sorted(ROOT.rglob("*.py"))
    assert len(paths) > 100, "the walk must cover the package"
    return [
        (path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8")))
        for path in paths
    ]


def test_nothing_goes_around_the_frozen_model():
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            text = ast.unparse(node) if isinstance(node, (ast.Call, ast.Assign)) else ""
            if text.startswith("object.__setattr__("):
                found.append(f"{name}:{node.lineno}: {text}")
            unfrozen = isinstance(node, ast.Assign) and ".writeable = " in text
            if unfrozen and name not in ("learn/weights.py", "linalg/vectors.py"):
                found.append(f"{name}:{node.lineno}: {text}")
            if isinstance(node, ast.Call) and ".setflags(" in text:
                found.append(f"{name}:{node.lineno}: {text}")
    assert found == []


def test_no_model_is_copied():
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "copy"
        and MODEL_RECEIVER.search(ast.unparse(node.func.value))
    ]
    assert found == []
