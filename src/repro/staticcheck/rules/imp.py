"""IMP — import layering between the repo's packages.

The numerics stack must stay servable without the serving or telemetry
layers loaded, and the dependency arrows must point one way:

* **IMP001** — ``core/`` must not import ``serving/``.
* **IMP002** — ``core/`` must not import ``obs/`` (core emits telemetry
  through the layering-neutral :mod:`repro.instrument` seam instead).
* **IMP003** — ``kernels/`` must not import ``serving/``.
* **IMP004** — a package ``__init__.py`` must not import its own
  submodules at module level; it maps its public names to them with the
  lazy-export helper (:mod:`repro._lazy`), so importing one module of a
  package does not load all of them.

Both absolute (``import repro.serving.x`` / ``from repro.serving import
y``) and relative (``from ..serving import y``) spellings are resolved.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.model import (
    FileContext,
    Rule,
    Severity,
    Violation,
    layer_of,
)

__all__ = ["RULES", "check_file", "PACKAGE_NAME"]

IMP001 = Rule(
    "IMP001", "IMP", Severity.ERROR, "core/ must not import serving/",
)
IMP002 = Rule(
    "IMP002", "IMP", Severity.ERROR,
    "core/ must not import obs/ (use the repro.instrument seam)",
)
IMP003 = Rule(
    "IMP003", "IMP", Severity.ERROR, "kernels/ must not import serving/",
)

IMP004 = Rule(
    "IMP004", "IMP", Severity.ERROR,
    "package __init__ must not import its submodules at module level "
    "(use repro._lazy.lazy_exports)",
)

RULES = (IMP001, IMP002, IMP003, IMP004)

#: Root package name the scanned tree is assumed to be.
PACKAGE_NAME = "repro"

#: The lazy-export helper: the one submodule a package ``__init__`` may
#: import at module level.
LAZY_HELPER = f"{PACKAGE_NAME}._lazy"

#: (source layer, imported layer) -> rule.
FORBIDDEN_EDGES: dict[tuple[str, str], Rule] = {
    ("core", "serving"): IMP001,
    ("core", "obs"): IMP002,
    ("kernels", "serving"): IMP003,
}


def _package(ctx: FileContext) -> tuple[str, ...]:
    """Package path of the *containing package* of this module, e.g.
    core/fmpq.py -> ("repro", "core"); core/__init__.py -> ("repro", "core")."""
    return (PACKAGE_NAME, *ctx.rel.split("/")[:-1])


def _resolve(node: ast.stmt, package: tuple[str, ...]) -> Iterator[str]:
    """The absolute modules one import statement names."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            if node.module:
                yield node.module
                # `from repro import obs` names the submodule in the
                # alias list, not the module path.
                for alias in node.names:
                    yield f"{node.module}.{alias.name}"
        else:
            # from .x import y (level=1) resolves against `package`;
            # each extra dot strips one more segment.
            base = package[: len(package) - (node.level - 1)]
            module = ".".join(base)
            if node.module:
                module = f"{module}.{node.module}" if module else node.module
            if module:
                yield module
            # `from . import serving`-style imports name the submodule
            # in the alias list.
            for alias in node.names:
                yield f"{module}.{alias.name}" if module else alias.name


def _imported_modules(
    ctx: FileContext,
) -> Iterator[tuple[ast.stmt, str]]:
    """Yield ``(node, absolute_module)`` for every import in the file."""
    package = _package(ctx)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in _resolve(node, package):
                yield node, module


def _is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``: a block never run."""
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def _module_level(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that run at import: the module body, through ``if`` and
    ``try`` blocks but not ``if TYPE_CHECKING:`` or into defs."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                yield from _module_level(node.body)
            yield from _module_level(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_level(block)
            for handler in node.handlers:
                yield from _module_level(handler.body)


def _check_package_init(ctx: FileContext) -> Iterator[Violation]:
    """IMP004: module-level imports of the package's own submodules."""
    package = _package(ctx)
    prefix = ".".join(package) + "."
    for node in _module_level(ctx.tree.body):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for module in _resolve(node, package):
            if module.startswith(prefix) and not (
                module == LAZY_HELPER or module.startswith(LAZY_HELPER + ".")
            ):
                yield ctx.violation(
                    IMP004, node,
                    f"package __init__ imports its submodule {module} at "
                    f"module level; map its names with "
                    f"{LAZY_HELPER}.lazy_exports",
                )
                break


def check_file(ctx: FileContext) -> Iterator[Violation]:
    if ctx.rel.rsplit("/", 1)[-1] == "__init__.py":
        yield from _check_package_init(ctx)
    source_layer = layer_of(ctx.rel)
    if source_layer not in {edge[0] for edge in FORBIDDEN_EDGES}:
        return
    # A `from repro.obs import x` statement names the obs layer through
    # both its module path and the expanded alias; report it once.
    seen: set[tuple[int, str]] = set()
    for node, module in _imported_modules(ctx):
        segments = module.split(".")
        if segments[0] != PACKAGE_NAME or len(segments) < 2:
            continue
        rule = FORBIDDEN_EDGES.get((source_layer, segments[1]))
        if rule is None or (node.lineno, rule.id) in seen:
            continue
        seen.add((node.lineno, rule.id))
        yield ctx.violation(
                rule, node,
                f"{source_layer}/ imports {module}; the "
                f"{segments[1]}/ layer sits above it",
            )
