"""DET — determinism invariants for replayable numerics and fault plans.

Scope: ``core/``, ``kernels/``, ``data/``, ``obs/live/``,
``serving/faults.py`` and ``obs/attrib.py``.  Quantization calibration,
the evaluation data and fault injection must be pure functions of their
seeds: the only sanctioned RNG is an explicitly seeded
``np.random.Generator`` threaded through call sites.

* **DET001** — legacy global-state ``np.random.*`` API (``np.random.rand``,
  ``np.random.seed``, ...).  The seeded-``Generator`` surface
  (``default_rng``, ``Generator``, bit generators) is allowed.
* **DET002** — importing the stdlib :mod:`random` module (global hidden
  state; not seedable per-call-site).
* **DET003** — wall-clock reads (``time.time()``, ``time.perf_counter()``,
  ...) — simulated components must take time as data, not sample it.
* **DET004** — builtin ``hash()``: ``str``/``bytes`` hashes are salted per
  process (``PYTHONHASHSEED``), so a seed derived from one differs run to
  run.  Use a stable digest such as ``zlib.crc32``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.model import (
    FileContext,
    Rule,
    Severity,
    Violation,
    in_det_scope,
)
from repro.staticcheck.rules.util import np_attr_name

__all__ = ["RULES", "check_file"]

DET001 = Rule(
    "DET001", "DET", Severity.ERROR,
    "no legacy np.random.* global-state RNG; thread a seeded Generator",
)
DET002 = Rule(
    "DET002", "DET", Severity.ERROR,
    "no stdlib random module in deterministic scopes",
)
DET003 = Rule(
    "DET003", "DET", Severity.ERROR,
    "no wall-clock reads in deterministic scopes",
)

DET004 = Rule(
    "DET004", "DET", Severity.ERROR,
    "no builtin hash() in deterministic scopes; it is salted per process",
)

RULES = (DET001, DET002, DET003, DET004)

#: The seeded, replayable subset of np.random that stays allowed.
_ALLOWED_NP_RANDOM = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

_CLOCK_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}


def check_file(ctx: FileContext) -> Iterator[Violation]:
    if not in_det_scope(ctx.rel):
        return
    for node in ast.walk(ctx.tree):
        # DET002: any import of the stdlib random module.
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield ctx.violation(
                        DET002, node,
                        "stdlib random carries hidden global state; use a "
                        "seeded np.random.Generator",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None and (
                node.module == "random" or node.module.startswith("random.")
            ):
                yield ctx.violation(
                    DET002, node,
                    "stdlib random carries hidden global state; use a "
                    "seeded np.random.Generator",
                )
            elif node.level == 0 and node.module == "time":
                clocky = [a.name for a in node.names if a.name in _CLOCK_FNS]
                if clocky:
                    yield ctx.violation(
                        DET003, node,
                        f"importing wall-clock functions {clocky} from "
                        "time; simulated components take time as data",
                    )

        # DET001: np.random.<legacy fn> outside the Generator surface.
        elif isinstance(node, ast.Attribute):
            np_name = np_attr_name(node)
            if (
                np_name is not None
                and np_name.startswith("random.")
                and np_name.count(".") == 1
                and np_name.split(".", 1)[1] not in _ALLOWED_NP_RANDOM
            ):
                yield ctx.violation(
                    DET001, node,
                    f"np.{np_name} uses the unseeded global RNG; thread "
                    "an explicitly seeded np.random.default_rng instead",
                )

        # DET003: time.time() and friends; DET004: builtin hash().
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "hash":
                yield ctx.violation(
                    DET004, node,
                    "hash() of a str/bytes changes with PYTHONHASHSEED; "
                    "derive seeds from a stable digest (zlib.crc32)",
                )
            elif (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "time"
                and fn.attr in _CLOCK_FNS
            ):
                yield ctx.violation(
                    DET003, node,
                    f"time.{fn.attr}() reads the wall clock; deterministic "
                    "code must take timestamps as parameters",
                )
