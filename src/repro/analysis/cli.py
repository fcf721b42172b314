"""``repro-lint``: run the analysis passes and gate on every finding.

Exit status is 0 when every finding is suppressed by a ``# repro: noqa(RULE)``
directive, 1 when any finding stands, 2 on usage errors.  The default
invocation from the repo root (``repro-lint``) scans ``src/repro``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.runner import DEFAULT_PASSES, analyze_paths

__all__ = ["main"]

_DEFAULT_SCAN = "src/repro"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-invariant static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to scan (default: {_DEFAULT_SCAN})",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by `# repro: noqa(...)` directives",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    passes = DEFAULT_PASSES()

    if args.list_rules:
        for analysis_pass in passes:
            for rule, description in sorted(analysis_pass.rules.items()):
                print(f"{rule}  [{analysis_pass.name}] {description}")
        return 0

    repo_root = Path.cwd()
    scan_paths = args.paths or [Path(_DEFAULT_SCAN)]
    for path in scan_paths:
        if not path.exists():
            print(f"repro-lint: path does not exist: {path}", file=sys.stderr)
            return 2

    active, suppressed = analyze_paths(scan_paths, passes=passes, repo_root=repo_root)

    if args.show_suppressed:
        for finding in suppressed:
            print(f"{finding.render()}  [suppressed]")
    for finding in active:
        print(finding.render())

    print(f"repro-lint: {len(active)} finding(s), {len(suppressed)} suppressed", file=sys.stderr)
    return 1 if active else 0


if __name__ == "__main__":
    raise SystemExit(main())
