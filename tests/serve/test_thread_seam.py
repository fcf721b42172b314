"""A shard is a partition, not a thread — and stays one.

A served view runs one thread of its own: the maintenance worker
(write-behind: tickets, rounds, WAL order).  Everything else — every read
batcher round, every shard operation, every scatter/gather, every checkpoint
export and write — runs on the caller's thread, and the paper's machinery in
``repro.core`` starts no thread at all.  This walk keeps executors, futures
and extra threads from coming back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
FORBIDDEN = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Future"}


def walk_serve_and_core():
    paths = sorted([*(ROOT / "serve").rglob("*.py"), *(ROOT / "core").rglob("*.py")])
    assert len(paths) > 20, "the walk must cover both packages"
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.relative_to(ROOT).as_posix(), node


def test_nothing_under_serve_or_core_imports_an_executor_or_a_future():
    found = []
    for where, node in walk_serve_and_core():
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names = {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            continue
        if names & FORBIDDEN or any(name.startswith("concurrent") for name in names):
            found.append(f"{where}:{node.lineno}: {sorted(names)}")
    assert found == []


def test_a_read_round_never_waits_on_a_clock():
    """The batcher waits only for a round to be answered: no timed ``wait`` /
    ``wait_for`` (a window held open for stragglers) and no ``time.monotonic``."""
    tree = ast.parse((ROOT / "serve" / "batcher.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name = node.func.attr
        timed = {"wait": 1, "wait_for": 2}.get(name)
        if timed is not None and (
            len(node.args) >= timed or any(k.arg == "timeout" for k in node.keywords)
        ):
            found.append(f"{name} with a timeout at line {node.lineno}")
        if name == "monotonic":
            found.append(f"monotonic at line {node.lineno}")
    assert found == []


def test_only_the_maintenance_worker_starts_a_thread():
    starts = [
        where
        for where, node in walk_serve_and_core()
        if isinstance(node, ast.Call)
        and "Thread" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert starts == ["serve/maintenance.py"]
