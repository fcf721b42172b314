"""The unit of analysis output: one structured finding."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Findings sort by (path, line, rule) so reports are stable
    across runs regardless of pass execution order.
    """

    path: str  #: repo-relative POSIX path of the offending file
    line: int  #: 1-based line number
    rule: str  #: rule identifier, e.g. ``LAY001``
    message: str  #: human-readable explanation

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"
