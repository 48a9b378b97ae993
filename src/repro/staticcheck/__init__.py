"""``repro.staticcheck`` — AST-based invariant checker for this repo.

The test suite can only *sample* COMET's numeric and determinism
invariants; this package enforces them on every line of ``src/``:

* **NUM** — no silent float64 upcasts in the quantization hot paths;
* **DET** — no unseeded RNG or wall-clock reads in deterministic scopes;
* **OBS** — bidirectional consistency between emitted metric names and
  ``obs/catalog.py``;
* **API** — complete type annotations on the public ``core``/``serving``
  surface;
* **IMP** — one-way import layering (``core`` below ``obs``/``serving``).

Run it exactly as CI does::

    python -m repro.cli staticcheck --format json

See ``docs/staticcheck.md`` for the rule catalog, suppression syntax
(``# staticcheck: ignore[RULE]``), the committed baseline, and how to add
a rule.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "rules": ("ALL_RULES", "RULES_BY_ID"),
    "baseline": (
        "Baseline", "discover_baseline", "load_baseline", "write_baseline",
    ),
    "engine": ("CheckResult", "resolve_root", "run_check"),
    "model": ("Rule", "Severity", "Violation"),
    "report": ("format_json", "format_text"),
})
