"""Snapshot dumping: one call writes every export format.

``write_snapshot(path)`` is what ``repro.cli ... --emit-metrics PATH`` and
the ``REPRO_EMIT_METRICS`` benchmark hook call after a run:

* ``PATH``            — Prometheus text exposition;
* ``PATH.json``       — the registry as JSON; when a live-observability
  bundle (:mod:`repro.obs.live`) is attached, a reserved top-level
  ``"live"`` key carries its final window / SLO / flight-recorder state,
  so the post-hoc snapshot and the live HTTP endpoints never disagree at
  shutdown (metric names always contain a dot, so the key cannot
  collide);
* ``PATH.trace.json`` — the merged chrome trace: the tracer's wall-clock
  span tree plus its simulated timeline (the engine steps and request
  lifecycle instants the serving engine's telemetry sink records).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import export as _export

__all__ = ["write_snapshot"]


def write_snapshot(
    path: str | Path,
    registry=None,
    tracer=None,
    live=None,
) -> dict[str, Path]:
    """Dump the active (or given) registry and tracer next to ``path``.

    Args:
        path: base output path; sibling ``.json`` / ``.trace.json`` files
            are derived from it.
        registry: metrics registry (default: the active global one).
        tracer: span tracer (default: the active global one).
        live: a :class:`repro.obs.live.LiveObs` whose final state lands
            under the JSON export's ``"live"`` key (default: the attached
            bundle, if any).

    Returns:
        ``{"prometheus": ..., "json": ..., "trace": ...}`` written paths.
    """
    from repro import obs  # late import: obs/__init__ imports this module
    from repro.obs import live as _live

    if registry is None:
        registry = obs.metrics()
    if tracer is None:
        tracer = obs.tracer()
    if live is None:
        live = _live.active()

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    path.write_text(_export.prometheus_text(registry))
    written["prometheus"] = path

    json_path = path.with_name(path.name + ".json")
    doc = _export.registry_to_dict(registry)
    if live is not None:
        doc["live"] = live.snapshot()
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    written["json"] = json_path

    trace_path = path.with_name(path.name + ".trace.json")
    records = tracer.records if tracer is not None else []
    _export.write_chrome_trace(trace_path, spans=records)
    written["trace"] = trace_path
    return written
