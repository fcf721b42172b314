"""The pass runner: parse files once, run every pass, apply suppressions.

Directives
----------

Three line comments steer the analyzer, all under the ``repro:`` prefix so
they can't collide with ruff/flake8 syntax:

``# repro: noqa(RULE[, RULE...])``
    Suppress the named rules on this line.  ``noqa(ALL)`` suppresses every
    rule.  Unlike bare ``# noqa`` a rule list is mandatory — blanket
    suppressions hide future findings.

``# repro: module(dotted.name)``
    Override the module name derived from the file path.  Used by test
    fixtures so a snippet in ``tests/analysis/fixtures/`` can pose as
    ``repro.db.table`` for the layering pass.

``# repro: locked(lock_attr)``
    On a ``def`` line: every statement in this function runs with
    ``self.<lock_attr>`` already held by the caller (the documented
    "called-with-lock-held" convention).  Consumed by the lock pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol

from repro.analysis.findings import Finding

__all__ = ["ModuleContext", "AnalysisPass", "load_module", "analyze_paths", "DEFAULT_PASSES"]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\(\s*([A-Z0-9_,\s]+?)\s*\)")
_MODULE_RE = re.compile(r"#\s*repro:\s*module\(\s*([\w.]+)\s*\)")
_LOCKED_RE = re.compile(r"#\s*repro:\s*locked\(\s*(\w+)\s*\)")


@dataclass
class ModuleContext:
    """One parsed source file plus everything passes need to inspect it."""

    path: str  #: repo-relative POSIX path
    module: str  #: dotted module name (possibly overridden by a directive)
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: line number -> set of suppressed rule names ("ALL" suppresses all)
    noqa: dict[int, set[str]] = field(default_factory=dict)
    #: line number of a ``def`` -> lock attribute held by the caller
    locked_markers: dict[int, str] = field(default_factory=dict)


class AnalysisPass(Protocol):
    """A pass sees the whole project and yields findings."""

    name: str
    rules: dict[str, str]  #: rule id -> one-line description

    def run(self, modules: list[ModuleContext]) -> Iterable[Finding]: ...


def _derive_module_name(path: Path) -> str:
    """Best-effort dotted name from a file path (``src/repro/x/y.py``)."""
    parts = list(path.parts)
    if "repro" in parts:
        rel = parts[parts.index("repro") :]
    else:
        rel = [path.stem]
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][: -len(".py")]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel) or path.stem


def load_module(path: Path, repo_root: Path | None = None) -> ModuleContext:
    """Parse one file into a :class:`ModuleContext`.

    Raises SyntaxError if the file does not parse; the CLI turns that into
    a finding rather than a crash.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    noqa: dict[int, set[str]] = {}
    locked: dict[int, str] = {}
    module = _derive_module_name(path)
    for lineno, text in enumerate(lines, start=1):
        if "#" not in text or "repro:" not in text:
            continue
        noqa_match = _NOQA_RE.search(text)
        if noqa_match:
            rules = {rule.strip() for rule in noqa_match.group(1).split(",") if rule.strip()}
            noqa.setdefault(lineno, set()).update(rules)
        locked_match = _LOCKED_RE.search(text)
        if locked_match:
            locked[lineno] = locked_match.group(1)
        module_match = _MODULE_RE.search(text)
        if module_match:
            module = module_match.group(1)
    display = path
    if repo_root is not None:
        try:
            display = path.resolve().relative_to(repo_root.resolve())
        except ValueError:
            display = path
    return ModuleContext(
        path=display.as_posix(),
        module=module,
        source=source,
        tree=tree,
        lines=lines,
        noqa=noqa,
        locked_markers=locked,
    )


def _suppressed(finding: Finding, contexts: dict[str, ModuleContext]) -> bool:
    ctx = contexts.get(finding.path)
    if ctx is None:
        return False
    rules = ctx.noqa.get(finding.line)
    return bool(rules) and ("ALL" in rules or finding.rule in rules)


def _default_passes() -> list[AnalysisPass]:
    # Imported lazily so ``repro.analysis.runner`` can be imported by the
    # passes' own tests without a cycle.
    from repro.analysis.passes.costs import CostChargingPass
    from repro.analysis.passes.layering import LayeringPass
    from repro.analysis.passes.locks import LockDisciplinePass
    from repro.analysis.passes.statnames import StatsNamingPass
    from repro.analysis.passes.wire import WireErrorPass

    return [
        LayeringPass(),
        LockDisciplinePass(),
        CostChargingPass(),
        StatsNamingPass(),
        WireErrorPass(),
    ]


DEFAULT_PASSES = _default_passes


def analyze_paths(
    paths: Iterable[Path],
    passes: list[AnalysisPass] | None = None,
    repo_root: Path | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Run every pass over every ``.py`` file under ``paths``.

    Returns ``(active, suppressed)``: findings that stand, and findings
    silenced by a ``# repro: noqa(...)`` directive (reported separately so a
    ``--show-suppressed`` listing stays possible).
    """
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    contexts: dict[str, ModuleContext] = {}
    parse_failures: list[Finding] = []
    for file_path in files:
        try:
            ctx = load_module(file_path, repo_root=repo_root)
        except SyntaxError as error:
            parse_failures.append(
                Finding(
                    path=file_path.as_posix(),
                    line=error.lineno or 1,
                    rule="PARSE001",
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        contexts[ctx.path] = ctx
    modules = list(contexts.values())
    all_findings: list[Finding] = list(parse_failures)
    for analysis_pass in passes if passes is not None else _default_passes():
        all_findings.extend(analysis_pass.run(modules))
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in sorted(set(all_findings)):
        (suppressed if _suppressed(finding, contexts) else active).append(finding)
    return active, suppressed
