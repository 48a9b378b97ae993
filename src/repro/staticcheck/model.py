"""Data model for the staticcheck rule engine.

A :class:`Rule` is a named invariant with a stable ID (``NUM001``), a
family (``NUM``), and a severity.  A :class:`Violation` is one spot in one
file where a rule failed, carrying enough context (line text) for stable
baseline matching across line-number drift.  A :class:`FileContext` bundles
everything a per-file checker needs: the parsed AST, raw lines, the path
relative to the scan root, and the suppression table.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Severity",
    "Rule",
    "Violation",
    "FileContext",
    "Suppressions",
    "layer_of",
    "in_hot_path",
    "in_det_scope",
    "in_api_scope",
]

#: Path prefixes (relative to the scan root) whose numerics are hot-path
#: critical: implicit float64 upcasts there silently change W4Ax results.
HOT_PATH_PREFIXES: tuple[str, ...] = ("core/", "kernels/", "gpu/")

#: Determinism scope: seeded-``Generator`` threading is mandatory here.
#: ``obs/live/`` is included so live-observability aggregation stays on
#: the simulated clock (wall-clock reads would break replay determinism);
#: ``data/`` so the evaluation corpus and task suites replay from a seed.
DET_PREFIXES: tuple[str, ...] = ("core/", "kernels/", "data/", "obs/live/")
#: Individual files under the same determinism contract: the fault plan
#: (seeded draws drive chaos replay) and the cost ledger (attribution must
#: be bit-reproducible across identical runs — no wall clock, no RNG).
DET_FILES: tuple[str, ...] = ("serving/faults.py", "obs/attrib.py")

#: Public-API annotation scope.
API_PREFIXES: tuple[str, ...] = ("core/", "serving/")


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Rule:
    """One checkable invariant with a stable identifier."""

    id: str
    family: str
    severity: Severity
    summary: str


@dataclass
class Violation:
    """One rule failure at one source location.

    ``status`` is assigned by the engine: ``reported`` violations gate the
    exit code, ``suppressed`` ones matched an inline/file ignore comment,
    and ``baselined`` ones matched a committed baseline entry.
    """

    rule: Rule
    rel: str  # scan-root-relative posix path
    line: int
    col: int
    message: str
    line_text: str = ""
    status: str = "reported"  # reported | suppressed | baselined

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.rel, self.line, self.col, self.rule.id)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule.id,
            "family": self.rule.family,
            "severity": self.rule.severity.value,
            "path": self.rel,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
            "status": self.status,
        }


@dataclass
class Suppressions:
    """Parsed ``# staticcheck: ignore[...]`` comments for one file.

    ``file_rules`` come from ``ignore-file`` comments and apply everywhere
    in the file; ``line_rules`` maps a physical line number to the tokens
    on that line.  An empty token set means "ignore every rule".
    """

    file_rules: set[str] = field(default_factory=set)
    file_all: bool = False
    line_rules: dict[int, set[str]] = field(default_factory=dict)
    line_all: set[int] = field(default_factory=set)

    @staticmethod
    def _matches(tokens: set[str], rule_id: str) -> bool:
        return any(
            rule_id == tok or (tok.isalpha() and rule_id.startswith(tok))
            for tok in tokens
        )

    def covers(self, rule_id: str, line: int) -> bool:
        if self.file_all or self._matches(self.file_rules, rule_id):
            return True
        if line in self.line_all:
            return True
        tokens = self.line_rules.get(line)
        return tokens is not None and self._matches(tokens, rule_id)


@dataclass
class FileContext:
    """Everything a per-file checker needs about one source file."""

    path: Path
    rel: str
    tree: ast.AST
    lines: list[str]
    suppressions: Suppressions

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def violation(
        self, rule: Rule, node: ast.AST, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            rule=rule,
            rel=self.rel,
            line=line,
            col=col,
            message=message,
            line_text=self.line_text(line),
        )


def layer_of(rel: str) -> str:
    """Top-level package segment of a scan-root-relative path ('' at root)."""
    return rel.split("/", 1)[0] if "/" in rel else ""


def in_hot_path(rel: str) -> bool:
    return rel.startswith(HOT_PATH_PREFIXES)


def in_det_scope(rel: str) -> bool:
    return rel.startswith(DET_PREFIXES) or rel in DET_FILES


def in_api_scope(rel: str) -> bool:
    return rel.startswith(API_PREFIXES)
