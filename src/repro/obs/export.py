"""Exporters: Prometheus text, JSON, and merged chrome://tracing output.

The Prometheus exposition keeps the repo's dotted metric names by default
(``serving.ttft_seconds``) because the snapshots are read by humans and
tests; pass ``strict_names=True`` to fold dots to underscores for a real
Prometheus scraper.

The chrome trace merges the two time domains on separate trace processes:

* pid 0 — the **simulated timeline** (engine steps, request lifecycle
  events, both on the engine's simulated clock);
* pid 1 — the **wall-clock span tree** (instrumented host computation:
  kernel latency evaluations nested inside engine steps, SM schedule
  simulations nested inside those).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import SpanRecord

__all__ = [
    "prometheus_text",
    "registry_to_dict",
    "registry_json",
    "chrome_trace_events",
    "write_chrome_trace",
    "SIM_PID",
    "WALL_PID",
]

SIM_PID = 0
WALL_PID = 1


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------


def _prom_name(name: str, strict: bool) -> str:
    return name.replace(".", "_") if strict else name


def _prom_labels(labelnames, values, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in zip(labelnames, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


def prometheus_text(registry: MetricsRegistry, strict_names: bool = False) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for fam in registry.collect():
        name = _prom_name(fam.name, strict_names)
        if fam.help:
            lines.append(f"# HELP {name} {fam.help}")
        lines.append(f"# TYPE {name} {fam.kind}")
        for values, child in fam.series():
            labels = _prom_labels(fam.labelnames, values)
            if isinstance(fam, (Counter, Gauge)):
                lines.append(f"{name}{labels} {_fmt(child.value)}")
            elif isinstance(fam, Histogram):
                for le, cum in child.cumulative():
                    bucket_labels = _prom_labels(
                        fam.labelnames, values, extra=f'le="{_fmt(le)}"'
                    )
                    lines.append(f"{name}_bucket{bucket_labels} {cum}")
                lines.append(f"{name}_sum{labels} {_fmt(child.sum)}")
                lines.append(f"{name}_count{labels} {child.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------


def registry_to_dict(registry: MetricsRegistry) -> dict:
    """A JSON-able snapshot: ``{name: {kind, help, series: [...]}}``."""
    out: dict[str, dict] = {}
    for fam in registry.collect():
        series = []
        for values, child in fam.series():
            labels = dict(zip(fam.labelnames, values))
            if isinstance(fam, Histogram):
                series.append(
                    {
                        "labels": labels,
                        "sum": child.sum,
                        "count": child.count,
                        "buckets": [
                            {"le": le if le != float("inf") else "+Inf",
                             "count": cum}
                            for le, cum in child.cumulative()
                        ],
                    }
                )
            else:
                series.append({"labels": labels, "value": child.value})
        out[fam.name] = {"kind": fam.kind, "help": fam.help, "series": series}
    return out


def registry_json(registry: MetricsRegistry, indent: int = 2) -> str:
    return json.dumps(registry_to_dict(registry), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------


def _span_event(record: SpanRecord, pid: int, tid: int = 0) -> dict:
    event = {
        "name": record.name,
        "cat": record.cat,
        "ph": "i" if record.instant else "X",
        "ts": record.start * 1e6,
        "pid": pid,
        "tid": tid,
        "args": dict(record.attrs),
    }
    if record.instant:
        event["s"] = "p"  # process-scoped instant marker
    else:
        event["dur"] = record.duration * 1e6
    return event


def chrome_trace_events(spans: Iterable[SpanRecord] = ()) -> list[dict]:
    """Build trace events for span records of both time domains."""
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": SIM_PID,
         "args": {"name": "simulated timeline"}},
        {"name": "process_name", "ph": "M", "pid": WALL_PID,
         "args": {"name": "wall-clock spans"}},
    ]
    for record in spans:
        pid = SIM_PID if record.domain == "sim" else WALL_PID
        events.append(_span_event(record, pid=pid))
    return events


def write_chrome_trace(path: str | Path, spans: Iterable[SpanRecord] = ()) -> Path:
    """Write a merged chrome://tracing JSON file (microsecond units)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events = chrome_trace_events(spans=spans)
    path.write_text(json.dumps({"traceEvents": events}))
    return path
