"""STAT001/STAT002: the stats-key and instrument-name grammar.

``tests/serve/test_stats_keys.py`` pins the serving layer's stats contract;
this pass makes it a whole-repo guarantee.  Checked sites:

* string keys of dict literals (and string subscript-assignments) inside any
  function named ``stats``/``metrics`` or ending in ``_stats``/``_metrics``;
* the literal first argument of ``counter``/``histogram``/``provider`` calls
  on a registry-like receiver.

Grammar: dot-separated segments, each ``[a-z][a-z0-9_]*``, no double or
trailing underscores (STAT001).  Unit-bearing names must use the canonical
suffixes ``_total``/``_seconds``/``_bytes``; the deprecated spellings in
:data:`repro.analysis.project.DEPRECATED_SUFFIXES` fire STAT002 with the
canonical replacement.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import DEPRECATED_SUFFIXES
from repro.analysis.runner import ModuleContext

__all__ = ["StatsNamingPass"]

_SEGMENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_REGISTRY_METHODS = frozenset({"counter", "histogram", "provider"})
_REGISTRY_HINTS = ("registry", "metrics")


def _is_stats_function(name: str) -> bool:
    return name in {"stats", "metrics"} or name.endswith(("_stats", "_metrics"))


def _grammar_error(key: str) -> str | None:
    """Why ``key`` violates the naming grammar, or None."""
    if not key:
        return "empty key"
    for segment in key.split("."):
        if "__" in segment or segment.endswith("_") or not _SEGMENT_RE.match(segment):
            return f"segment '{segment}' is not snake_case ([a-z][a-z0-9_]*)"
    return None


def _deprecated_suffix(key: str) -> tuple[str, str] | None:
    final = key.rsplit(".", 1)[-1]
    for suffix, canonical in DEPRECATED_SUFFIXES.items():
        if final.endswith(suffix):
            return suffix, canonical
    return None


def _terminal_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


class StatsNamingPass:
    name = "statnames"
    rules = {
        "STAT001": "stats key / instrument name violates the snake_case grammar",
        "STAT002": "stats key uses a deprecated unit suffix",
    }

    def run(self, modules: list[ModuleContext]) -> Iterable[Finding]:
        for ctx in modules:
            if not ctx.module.startswith("repro"):
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _is_stats_function(node.name):
                        yield from self._check_stats_function(ctx, node)
                elif isinstance(node, ast.Call):
                    yield from self._check_instrument_call(ctx, node)

    def _check_stats_function(
        self, ctx: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        yield from self._check_key(ctx, key.lineno, key.value)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        yield from self._check_key(ctx, target.lineno, target.slice.value)

    def _check_instrument_call(self, ctx: ModuleContext, call: ast.Call) -> Iterator[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in _REGISTRY_METHODS):
            return
        receiver = _terminal_name(func.value)
        if receiver is None or not any(hint in receiver.lower() for hint in _REGISTRY_HINTS):
            return
        if not call.args:
            return
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield from self._check_key(ctx, first.lineno, first.value)

    def _check_key(self, ctx: ModuleContext, line: int, key: str) -> Iterator[Finding]:
        grammar = _grammar_error(key)
        if grammar is not None:
            yield Finding(
                path=ctx.path,
                line=line,
                rule="STAT001",
                message=f"stats key '{key}': {grammar}",
            )
            return
        deprecated = _deprecated_suffix(key)
        if deprecated is not None:
            suffix, canonical = deprecated
            yield Finding(
                path=ctx.path,
                line=line,
                rule="STAT002",
                message=f"stats key '{key}' uses deprecated suffix '{suffix}'; use '{canonical}'",
            )
