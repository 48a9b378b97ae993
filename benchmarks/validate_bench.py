"""Schema gate for the canonical ``BENCH_serving.json`` trajectory file.

``bench_util.emit_json(..., trajectory="serving")`` merges every serving
benchmark's payload into one root-level document that CI uploads as the
cross-commit trajectory artifact.  A malformed emit (missing row keys, a
dropped ``trajectory`` tag, attribution fractions out of range) would
silently corrupt that trajectory for every later commit — so CI runs this
validator right after the bench smoke and fails the build instead.

Usage::

    python benchmarks/validate_bench.py [path/to/BENCH_serving.json]

Exit status 0 when the document validates, 1 with one line per problem
otherwise.  The ``test_*`` functions double as the pytest coverage for
the validator itself (hermetic: they build documents in memory).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = REPO_ROOT / "BENCH_serving.json"

#: Keys every ``hotpath_serving`` row must carry.
SERVING_ROW_KEYS = frozenset({
    "model", "system", "requests", "throughput_tok_s", "ttft_p50_ms",
    "ttft_p99_ms", "tpot_p99_ms", "e2e_p99_s", "e2e_max_s", "attribution",
})

#: Keys every ``hotpath_costmodel`` row must carry.
COSTMODEL_ROW_KEYS = frozenset({
    "kernel", "model", "m", "shapes", "tiles_per_call", "us_per_call",
    "per_tile_us_per_call", "speedup",
})

#: Keys every ``hotpath_scale`` row must carry.
SCALE_ROW_KEYS = frozenset({
    "requests", "steps", "peak_batch", "throughput_tok_s",
    "overhead_us_per_step", "obs_overhead_us_per_step", "phases_us_per_step",
})

#: The scale tier whose attached step loop may cost at most twice the
#: detached one in a smoke run (``obs_overhead_us_per_step <=
#: overhead_us_per_step``).
SCALE_OBS_TIER = 1000

#: Keys every ``hotpath_footprint`` row must carry, and the quantities
#: the section must hold (one row each).
FOOTPRINT_ROW_KEYS = frozenset({"quantity", "unit", "before", "after"})
FOOTPRINT_QUANTITIES = frozenset({
    "engine_import_s", "engine_import_modules", "engine_import_rss_mb",
    "request_bytes", "drained_pool_bytes",
})

#: The attribution fraction keys (repro.obs.attrib ATTRIBUTION_KEYS —
#: spelled out so this gate has no src/ import and runs standalone).
ATTRIBUTION_KEYS = frozenset({
    "queue", "gemm", "attention", "kv_dequant", "overhead", "stall",
})

MODES = ("smoke", "full")


def _check_rows(name: str, payload: object, keys: frozenset,
                errors: list) -> list:
    if not isinstance(payload, dict):
        errors.append(f"{name}: payload is not an object")
        return []
    if payload.get("mode") not in MODES:
        errors.append(f"{name}: mode must be one of {MODES}, "
                      f"got {payload.get('mode')!r}")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append(f"{name}: rows must be a non-empty list")
        return []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"{name}: rows[{i}] is not an object")
            continue
        missing = keys - row.keys()
        if missing:
            errors.append(
                f"{name}: rows[{i}] missing keys {sorted(missing)}"
            )
    return rows


def _check_attribution(name: str, i: int, attribution: object,
                       errors: list) -> None:
    if not isinstance(attribution, dict):
        errors.append(f"{name}: rows[{i}].attribution is not an object")
        return
    missing = ATTRIBUTION_KEYS - attribution.keys()
    if missing:
        errors.append(
            f"{name}: rows[{i}].attribution missing {sorted(missing)}"
        )
    total = 0.0
    for key, value in attribution.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(
                f"{name}: rows[{i}].attribution[{key!r}] is not numeric"
            )
            return
        if not 0.0 <= value <= 1.0:
            errors.append(
                f"{name}: rows[{i}].attribution[{key!r}]={value} "
                "outside [0, 1]"
            )
        total += value
    if total > 0 and abs(total - 1.0) > 1e-6:
        errors.append(
            f"{name}: rows[{i}].attribution fractions sum to {total:.6f}, "
            "expected 1.0"
        )


def _check_scale(name: str, payload: dict, rows: list, errors: list) -> None:
    if payload.get("mode") != "smoke":
        return
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or row.get("requests") != SCALE_OBS_TIER:
            continue
        obs_us = row.get("obs_overhead_us_per_step")
        detached_us = row.get("overhead_us_per_step")
        numbers = all(isinstance(v, (int, float)) for v in (obs_us, detached_us))
        if numbers and obs_us > detached_us:
            errors.append(
                f"{name}: rows[{i}] attached costs more than twice detached "
                f"at {SCALE_OBS_TIER} requests (obs {obs_us:.1f} > "
                f"{detached_us:.1f} us/step)"
            )


def _check_footprint(name: str, rows: list, errors: list) -> None:
    seen = [row.get("quantity") for row in rows if isinstance(row, dict)]
    if sorted(seen) != sorted(FOOTPRINT_QUANTITIES):
        errors.append(f"{name}: quantities must be "
                      f"{sorted(FOOTPRINT_QUANTITIES)} once each, got {seen}")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        for side in ("before", "after"):
            value = row.get(side)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not value >= 0):
                errors.append(f"{name}: rows[{i}].{side}={value!r} is not a "
                              "non-negative number")


def validate(doc: object) -> list:
    """All schema problems with a ``BENCH_serving.json`` document."""
    errors: list = []
    if not isinstance(doc, dict):
        return ["document root is not an object"]
    if doc.get("trajectory") != "serving":
        errors.append(
            f"trajectory must be 'serving', got {doc.get('trajectory')!r}"
        )
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        errors.append("benchmarks must be a non-empty object")
        return errors
    if "hotpath_serving" not in benchmarks:
        errors.append("benchmarks.hotpath_serving is required")
    for name, payload in sorted(benchmarks.items()):
        if name == "hotpath_serving":
            rows = _check_rows(name, payload, SERVING_ROW_KEYS, errors)
            for i, row in enumerate(rows):
                if isinstance(row, dict) and "attribution" in row:
                    _check_attribution(
                        name, i, row["attribution"], errors
                    )
        elif name == "hotpath_scale":
            rows = _check_rows(name, payload, SCALE_ROW_KEYS, errors)
            _check_scale(name, payload, rows, errors)
        elif name == "hotpath_costmodel":
            rows = _check_rows(name, payload, COSTMODEL_ROW_KEYS, errors)
            for i, row in enumerate(rows):
                us = row.get("us_per_call") if isinstance(row, dict) else None
                if isinstance(us, (int, float)) and not us > 0:
                    errors.append(
                        f"{name}: rows[{i}].us_per_call={us} is not positive"
                    )
        elif name == "hotpath_footprint":
            rows = _check_rows(name, payload, FOOTPRINT_ROW_KEYS, errors)
            _check_footprint(name, rows, errors)
        # Unknown benchmark names are allowed (future emitters) as long as
        # they keep the {mode, rows} envelope.
        else:
            _check_rows(name, payload, frozenset(), errors)
    return errors


# ---------------------------------------------------------------- pytest


def _good_doc() -> dict:
    return {
        "trajectory": "serving",
        "benchmarks": {
            "hotpath_serving": {
                "mode": "smoke",
                "rows": [{
                    "model": "serving-bench", "system": "comet",
                    "requests": 16,
                    "throughput_tok_s": 1800.0, "ttft_p50_ms": 1.0,
                    "ttft_p99_ms": 2.0, "tpot_p99_ms": 0.3,
                    "e2e_p99_s": 0.01, "e2e_max_s": 0.02,
                    "attribution": {
                        "queue": 0.1, "gemm": 0.5, "attention": 0.2,
                        "kv_dequant": 0.1, "overhead": 0.05, "stall": 0.05,
                    },
                }],
            },
        },
    }


def test_accepts_well_formed_document():
    assert validate(_good_doc()) == []


def test_rejects_wrong_trajectory_and_missing_serving():
    doc = _good_doc()
    doc["trajectory"] = "kernels"
    del doc["benchmarks"]["hotpath_serving"]
    doc["benchmarks"]["other"] = {"mode": "smoke", "rows": [{}]}
    errors = validate(doc)
    assert any("trajectory" in e for e in errors)
    assert any("hotpath_serving is required" in e for e in errors)


def test_rejects_missing_row_keys_and_bad_fractions():
    doc = _good_doc()
    row = doc["benchmarks"]["hotpath_serving"]["rows"][0]
    del row["ttft_p99_ms"]
    row["attribution"]["gemm"] = 1.7
    errors = validate(doc)
    assert any("missing keys" in e and "ttft_p99_ms" in e for e in errors)
    assert any("outside [0, 1]" in e for e in errors)


def test_rejects_fraction_sum_drift():
    doc = _good_doc()
    doc["benchmarks"]["hotpath_serving"]["rows"][0]["attribution"][
        "stall"
    ] = 0.5
    errors = validate(doc)
    assert any("sum to" in e for e in errors)


def test_rejects_empty_rows_and_bad_mode():
    doc = _good_doc()
    doc["benchmarks"]["hotpath_serving"]["rows"] = []
    doc["benchmarks"]["hotpath_serving"]["mode"] = "partial"
    errors = validate(doc)
    assert any("non-empty list" in e for e in errors)
    assert any("mode" in e for e in errors)


def test_costmodel_rows_are_gated():
    doc = _good_doc()
    row = {
        "kernel": "comet-w4ax", "model": "llama-3-8b", "m": 256,
        "shapes": 4, "tiles_per_call": 700.0, "us_per_call": 250.0,
        "per_tile_us_per_call": 40000.0, "speedup": 160.0,
    }
    doc["benchmarks"]["hotpath_costmodel"] = {"mode": "full", "rows": [row]}
    assert validate(doc) == []
    del row["tiles_per_call"]
    row["us_per_call"] = 0.0
    errors = validate(doc)
    assert any("missing keys" in e and "tiles_per_call" in e for e in errors)
    assert any("us_per_call=0.0 is not positive" in e for e in errors)


def test_serving_rows_carry_the_model():
    doc = _good_doc()
    del doc["benchmarks"]["hotpath_serving"]["rows"][0]["model"]
    errors = validate(doc)
    assert any("missing keys" in e and "'model'" in e for e in errors)


def test_scale_rows_carry_obs_overhead():
    doc = _good_doc()
    row = {
        "requests": 1000, "steps": 613, "peak_batch": 256,
        "throughput_tok_s": 316248.3, "overhead_us_per_step": 80.0,
        "obs_overhead_us_per_step": 40.0,
        "phases_us_per_step": {"admit": 30.0, "model": 113.0},
    }
    doc["benchmarks"]["hotpath_scale"] = {"mode": "smoke", "rows": [row]}
    assert validate(doc) == []
    del row["obs_overhead_us_per_step"]
    errors = validate(doc)
    assert any(
        "missing keys" in e and "obs_overhead_us_per_step" in e
        for e in errors
    )


def test_scale_obs_overhead_is_gated_at_the_smoke_tier():
    doc = _good_doc()
    row = {
        "requests": 1000, "steps": 613, "peak_batch": 256,
        "throughput_tok_s": 316248.3, "overhead_us_per_step": 80.0,
        "obs_overhead_us_per_step": 80.0,
        "phases_us_per_step": {"admit": 30.0, "model": 113.0},
    }
    doc["benchmarks"]["hotpath_scale"] = {"mode": "smoke", "rows": [row]}
    assert validate(doc) == []
    row["obs_overhead_us_per_step"] = 80.5
    errors = validate(doc)
    assert any("more than twice detached" in e for e in errors)
    doc["benchmarks"]["hotpath_scale"]["mode"] = "full"
    assert validate(doc) == []


def test_footprint_rows_are_gated():
    doc = _good_doc()
    rows = [
        {"quantity": q, "unit": "B", "before": 2.0, "after": 1.0}
        for q in sorted(FOOTPRINT_QUANTITIES)
    ]
    doc["benchmarks"]["hotpath_footprint"] = {"mode": "smoke", "rows": rows}
    assert validate(doc) == []
    rows[0]["after"] = None
    del rows[1]["unit"]
    rows.pop()
    errors = validate(doc)
    assert any("after=None is not a non-negative number" in e for e in errors)
    assert any("missing keys" in e and "'unit'" in e for e in errors)
    assert any("once each" in e for e in errors)


def test_committed_document_validates():
    """The repo's own trajectory file must always pass the gate."""
    if not DEFAULT_PATH.exists():
        return  # fresh clone before the first bench run
    errors = validate(json.loads(DEFAULT_PATH.read_text()))
    assert errors == [], "\n".join(errors)


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = Path(argv[0]) if argv else DEFAULT_PATH
    if not path.exists():
        print(f"validate_bench: {path} not found", file=sys.stderr)
        return 1
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        print(f"validate_bench: {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return 1
    errors = validate(doc)
    if errors:
        for line in errors:
            print(f"validate_bench: {line}", file=sys.stderr)
        return 1
    print(f"validate_bench: {path} OK "
          f"({len(doc['benchmarks'])} benchmark section(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
