"""What keeps a feature vector a value that the runtime cannot check.

A :class:`~repro.linalg.SparseVector` is built once and then shared: a
featurizer returns it, a training example, a store record, the main-memory
store's CSR rows and a checkpoint all hold that object or copy its arrays.
The runtime refuses the writes — the class has no item assignment and both
arrays are read-only (``tests/linalg/test_vectors.py`` pins that).  What it
cannot refuse is code that writes through a way around it: an item assignment
on something that is a vector only by name, a reach into the private arrays
from outside ``linalg/vectors.py``, or an array made writable again.  This
walk keeps all three out of the package.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro
from repro.linalg import SparseVector

ROOT = Path(repro.__file__).parent
#: The receiver of an item assignment that writes into a vector.
VECTOR_RECEIVER = re.compile(r"(^|\.)(vector|features|gradient)$")
PRIVATE_ARRAYS = {"_indices", "_values"}


def modules() -> list[tuple[str, ast.AST]]:
    paths = sorted(ROOT.rglob("*.py"))
    assert len(paths) > 100, "the walk must cover the package"
    return [
        (path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8")))
        for path in paths
    ]


def test_no_vector_is_written_item_by_item():
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
                if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else node.targets
                if isinstance(node, ast.Delete)
                else []
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and VECTOR_RECEIVER.search(
                    ast.unparse(target.value)
                ):
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_the_private_arrays_stay_in_their_module():
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for name, tree in modules()
        if name != "linalg/vectors.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_ARRAYS
    ]
    assert found == []


def test_no_array_is_made_writable_again():
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ".setflags(" in ast.unparse(node):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
            if isinstance(node, ast.Assign) and any(
                ast.unparse(target).endswith(".writeable") for target in node.targets
            ):
                if not (isinstance(node.value, ast.Constant) and node.value.value is False):
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_the_class_has_no_mutator():
    mutators = {
        "__setitem__", "__delitem__", "__iadd__", "__isub__", "__imul__", "scale_inplace",
        "add_inplace", "add", "subtract", "copy", "to_dict",
    }
    assert sorted(mutators & set(dir(SparseVector))) == []
