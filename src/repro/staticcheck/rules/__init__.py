"""Rule registry: every family's rules, keyed by stable ID.

To add a rule family (see ``docs/staticcheck.md``): create a module in
this package exposing ``RULES`` (a tuple of :class:`~repro.staticcheck
.model.Rule`) and ``check_file(ctx)`` (a generator of violations), then
list it in :data:`FAMILY_MODULES`.  Project-wide families (like OBS) may
instead expose ``check_project(contexts, ...)`` and hook into
:mod:`repro.staticcheck.engine` explicitly.
"""

from __future__ import annotations

from repro.staticcheck.model import Rule
# The registry below is built from every family module.
from repro.staticcheck.rules import (  # staticcheck: ignore[IMP004]
    api, det, imp, num, obs,
)

__all__ = ["ALL_RULES", "RULES_BY_ID", "FAMILY_MODULES", "FILE_CHECKERS"]

#: Modules contributing rules, in report order.
FAMILY_MODULES = (num, det, obs, api, imp)

ALL_RULES: tuple[Rule, ...] = tuple(
    rule for mod in FAMILY_MODULES for rule in mod.RULES
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

#: Per-file checkers (OBS is project-wide and runs separately).
FILE_CHECKERS = (num.check_file, det.check_file, api.check_file,
                 imp.check_file)
