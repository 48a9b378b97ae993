"""``repro.obs`` — the unified telemetry subsystem.

One global switchboard connects every instrumented layer (FMPQ, kernels,
GPU simulator, serving engine) to a metrics registry and a span tracer:

    from repro import obs

    registry, tracer = obs.enable()
    ... run anything instrumented ...
    print(obs.export.prometheus_text(registry))
    obs.disable()

Instrumentation is **zero-cost when disabled** (the default): ``metrics()``
returns a :class:`~repro.obs.registry.NullRegistry` whose instruments
absorb every call, ``span()`` returns a shared no-op context manager, and
call sites that would do extra work to *compute* a metric guard on
``enabled()``.  Kernel and simulator benchmarks therefore run at full
speed unless telemetry is explicitly switched on.

Modules:
    registry — counters, gauges, bucketed histograms (+ null variants)
    spans    — hierarchical span tracing across layers
    catalog  — canonical metric names and help strings per layer
    export   — Prometheus text / JSON / merged chrome-trace exporters
    snapshot — one-call dumping of every export format
"""

from __future__ import annotations

import sys
import threading

from repro import instrument as _instrument
from repro._lazy import lazy_exports
# The switchboard below builds on the registry and span tracer, so these
# three load with the package; the exporters load on first use.
from repro.obs.catalog import (  # staticcheck: ignore[IMP004]
    METRIC_CATALOG,
    metric_help,
)
from repro.obs.registry import (  # staticcheck: ignore[IMP004]
    MetricsRegistry,
    NullRegistry,
    DEFAULT_TIME_BUCKETS,
    FRACTION_BUCKETS,
)
from repro.obs.spans import (  # staticcheck: ignore[IMP004]
    NULL_SPAN_HANDLE,
    SpanRecord,
    SpanTracer,
)

_, __getattr__, __dir__ = lazy_exports(__name__, {"snapshot": ("write_snapshot",)})

__all__ = [
    "enable",
    "disable",
    "enabled",
    "metrics",
    "tracer",
    "span",
    "event",
    "sample",
    "write_snapshot",
    "MetricsRegistry",
    "NullRegistry",
    "SpanTracer",
    "SpanRecord",
    "METRIC_CATALOG",
    "metric_help",
    "DEFAULT_TIME_BUCKETS",
    "FRACTION_BUCKETS",
]

_NULL_REGISTRY = NullRegistry()

_lock = threading.Lock()
_enabled: bool = False
_registry: MetricsRegistry | NullRegistry = _NULL_REGISTRY
_tracer: SpanTracer | None = None


def enable(
    registry: MetricsRegistry | None = None,
    span_tracer: SpanTracer | None = None,
) -> tuple[MetricsRegistry, SpanTracer]:
    """Switch telemetry on, installing (or reusing) a registry and tracer.

    Idempotent: enabling twice keeps the existing collectors unless new
    ones are passed explicitly.
    """
    global _enabled, _registry, _tracer
    with _lock:
        if registry is not None:
            _registry = registry
        elif not isinstance(_registry, MetricsRegistry):
            _registry = MetricsRegistry()
        if span_tracer is not None:
            _tracer = span_tracer
        elif _tracer is None:
            _tracer = SpanTracer()
        _enabled = True
        return _registry, _tracer


def disable() -> None:
    """Switch telemetry off; instrumentation reverts to no-ops."""
    global _enabled, _registry, _tracer
    with _lock:
        _enabled = False
        _registry = _NULL_REGISTRY
        _tracer = None


def enabled() -> bool:
    """Fast hot-path check: is telemetry collecting?"""
    return _enabled


def metrics() -> MetricsRegistry | NullRegistry:
    """The active metrics registry (a no-op registry when disabled)."""
    return _registry


def tracer() -> SpanTracer | None:
    """The active span tracer, or None when disabled."""
    return _tracer


def span(name: str, cat: str = "span", **attrs):
    """Open a span when enabled; a shared no-op context otherwise.

    Usage::

        with obs.span("fmpq.permute", cat="fmpq", channels=512):
            ...
    """
    if not _enabled or _tracer is None:
        return NULL_SPAN_HANDLE
    return _tracer.span(name, cat=cat, **attrs)


def event(
    name: str,
    ts: float | None = None,
    cat: str = "event",
    domain: str = "wall",
    **attrs,
) -> None:
    """Record an instant event when enabled; no-op otherwise."""
    if _enabled and _tracer is not None:
        _tracer.event(name, ts=ts, cat=cat, domain=domain, **attrs)


def sample(name: str, value: float, ts: float | None = None) -> None:
    """Feed one sliding-window sample to the attached live-observability
    bundle (:mod:`repro.obs.live`); no-op when nothing is attached.

    This is the provider side of :func:`repro.instrument.sample`, so core
    layers can contribute window samples without importing ``repro.obs``.
    """
    if not _enabled:
        return
    from repro.obs import live as _live  # deferred: live imports this pkg

    bundle = _live.active()
    if bundle is not None:
        bundle.sample(name, value, ts=ts)


# Register this module as the telemetry provider behind the layering-neutral
# seam: repro.core emits through repro.instrument (core must not import
# repro.obs — staticcheck IMP002), and those calls forward here from the
# moment this package is first imported.
_instrument.set_provider(sys.modules[__name__])
