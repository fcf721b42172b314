"""Project-invariant static analysis for the repro codebase.

The serving stack's load-bearing invariants — the downward-only import DAG,
lock discipline around shared mutable state, CostModel charging for every
storage touch, the stats-key grammar, and wire-error round-trippability —
are structural properties of the *source*, not of any one execution.  This
package checks them with a small AST pass runner (`repro-lint`) so whole bug
classes (deadlocks, torn counters, uncharged I/O, layering erosion) are
caught before a test ever runs.

The framework is intentionally tiny and dependency-free: findings are
(path, line, rule, message) tuples, and a justified ``# repro: noqa(RULE)``
line comment is the one way to silence a finding.
"""

from repro.analysis.findings import Finding
from repro.analysis.runner import analyze_paths, load_module

__all__ = ["Finding", "analyze_paths", "load_module"]
