"""Only the trainer makes a model; nobody changes one afterwards.

A model version is a value: :class:`~repro.learn.sgd.SGDTrainer` builds it
once and every view, maintainer, water-band tracker, published epoch and
checkpoint holds that same object by reference.  That is sound only while
nothing else writes into a model, so this walk keeps the writes where they
belong — ``learn/sgd.py`` (which builds each next model) and
``learn/batch.py`` (which changes only the model it built for itself) — and
keeps out defensive copies, which a value never needs.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
MODEL_BUILDERS = {"learn/sgd.py", "learn/batch.py"}
IN_PLACE = {"add_inplace", "scale_inplace"}
MODEL_FIELDS = {"weights", "bias", "version"}
#: The receiver of a ``.copy()`` that copies a model.
MODEL_RECEIVER = re.compile(r'(model|final|\["current_model"\])$')


def modules() -> list[tuple[str, ast.AST]]:
    paths = sorted(ROOT.rglob("*.py"))
    assert len(paths) > 100, "the walk must cover the package"
    return [
        (path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8")))
        for path in paths
    ]


def assignment_targets(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Assign):
        return [leaf for target in node.targets for leaf in ast.walk(target)]
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return list(ast.walk(node.target))
    return []


def is_weights(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "weights"


def test_nothing_outside_the_trainer_writes_into_a_model():
    found = []
    for name, tree in modules():
        if name in MODEL_BUILDERS:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in IN_PLACE
                and is_weights(node.func.value)
            ):
                found.append(f"{name}:{node.lineno}: .weights.{node.func.attr}(...)")
            for target in assignment_targets(node):
                if isinstance(target, ast.Subscript) and is_weights(target.value):
                    found.append(f"{name}:{node.lineno}: .weights[...] = ...")
                elif isinstance(target, ast.Attribute) and target.attr in MODEL_FIELDS:
                    found.append(f"{name}:{node.lineno}: .{target.attr} = ...")
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


def test_no_regularizer_step_mutates_its_argument():
    tree = ast.parse((ROOT / "learn" / "regularizers.py").read_text(encoding="utf-8"))
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        parameters = {arg.arg for arg in function.args.args} - {"self"}
        for node in ast.walk(function):
            receivers = [
                target.value for target in assignment_targets(node)
                if isinstance(target, (ast.Subscript, ast.Attribute))
            ]
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in IN_PLACE | {"__setitem__", "clear", "update", "pop"}:
                    receivers.append(node.func.value)
            found += [
                f"regularizers.py:{node.lineno}: {function.name} writes into {receiver.id}"
                for receiver in receivers
                if isinstance(receiver, ast.Name) and receiver.id in parameters
            ]
    assert found == []
