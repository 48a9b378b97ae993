"""Execution tracing for the serving engine.

A :class:`StepTrace` records one engine iteration (clock, phase mix, batch,
token counts); :class:`EngineTracer` collects them and exports either a
summary or the Chrome ``chrome://tracing`` JSON format, so a simulated run
can be inspected in the same tooling used for real GPU timelines.

Since the unified telemetry subsystem (:mod:`repro.obs`) landed, a step is
stored as a simulated-domain :class:`repro.obs.spans.SpanRecord` — the same
record type the cross-layer span tracer uses — and :class:`StepTrace` is a
typed view over that span (``StepTrace.from_span`` / ``StepTrace.to_span``).
When the global telemetry registry is enabled, recorded steps are forwarded
to ``repro.obs.tracer()`` as well, so the merged chrome export shows the
simulated engine timeline next to the wall-clock span tree.  The legacy
:meth:`EngineTracer.write_chrome_trace` output format is unchanged.

The tracer is a sink of the engine's event vocabulary,
:class:`EngineEvents`, which this module defines.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import repro.obs as obs
from repro.obs.spans import SpanRecord

if TYPE_CHECKING:
    from repro.serving.engine import ThroughputReport
    from repro.serving.request import Request

__all__ = ["Step", "EngineEvents", "StepTrace", "EngineTracer"]

#: Span category used for engine-step spans on the simulated timeline.
STEP_SPAN_CAT = "engine.step"

_STEP_KINDS = ("prefill", "decode", "mixed")


class Step(NamedTuple):
    """One engine iteration, as the event stream reports it."""

    kind: str  # 'prefill' | 'decode' | 'mixed'
    start: float  # simulated clock when the step began
    end: float  # ... and when it ended: the clock of its events
    dt: float  # the step time charged (``end - start`` before rounding)
    batch: int
    decode_tokens: int
    prefill_tokens: int
    context_tokens: int
    gemm: float
    attention: float  # all attention time, ``kv_dequant`` included
    kv_dequant: float
    overhead: float
    prefill_id: int  # the request whose prompt computes this step, or -1
    serialized: bool  # a whole-prompt prefill: every other request waits


class EngineEvents:
    """The engine's event vocabulary, as no-ops: a sink overrides the events
    it consumes (docs/observability.md, "Engine events").

    ``ServingEngine.run`` reports each event to every attached sink, on the
    simulated clock.  ``fault`` marks an injection (``req`` given when it
    is aimed at one request); ``fault_hit`` names the request a fault
    struck.  Per step, ``step_cost`` comes before any request state
    advances and ``step_end`` after, once the step's tokens have landed.
    """

    def admit(self, req: Request, clock: float) -> None: ...
    def first_token(self, req: Request, clock: float) -> None: ...
    def finish(self, req: Request, clock: float) -> None: ...
    def preempt(self, req: Request, clock: float, lost: int) -> None: ...
    def reject(self, req: Request, clock: float) -> None: ...
    def retry(self, req: Request, clock: float, reason: str) -> None: ...
    def fail(self, req: Request, clock: float) -> None: ...
    def timeout(self, req: Request, clock: float) -> None: ...
    def fault(self, kind: str, clock: float, req: Request | None = None) -> None: ...
    def fault_hit(self, kind: str, req: Request, clock: float) -> None: ...
    def prefill_done(self, req: Request, clock: float) -> None: ...
    def step_cost(self, step: Step) -> None: ...
    def step_end(self, step: Step, tokens: int) -> None: ...
    def end_run(self, report: ThroughputReport) -> None: ...


@dataclass(frozen=True)
class StepTrace:
    """One engine iteration."""

    index: int
    start: float
    duration: float
    kind: str  # 'prefill' | 'decode' | 'mixed'
    batch: int
    decode_tokens: int
    prefill_tokens: int
    context_tokens: int

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_span(self, span_id: int = -1) -> SpanRecord:
        """The simulated-domain span representation of this step."""
        return SpanRecord(
            span_id=span_id,
            parent_id=None,
            name=f"{self.kind} b={self.batch}",
            cat=STEP_SPAN_CAT,
            start=self.start,
            duration=self.duration,
            domain="sim",
            attrs={
                "index": self.index,
                "kind": self.kind,
                "batch": self.batch,
                "decode_tokens": self.decode_tokens,
                "prefill_tokens": self.prefill_tokens,
                "context_tokens": self.context_tokens,
            },
        )

    @classmethod
    def from_span(cls, span: SpanRecord) -> "StepTrace":
        a = span.attrs
        return cls(
            index=a["index"],
            start=span.start,
            duration=span.duration,
            kind=a["kind"],
            batch=a["batch"],
            decode_tokens=a["decode_tokens"],
            prefill_tokens=a["prefill_tokens"],
            context_tokens=a["context_tokens"],
        )


def _step_chrome_event(span: SpanRecord) -> dict:
    """The legacy chrome-trace event for one step span (µs units)."""
    a = span.attrs
    return {
        "name": f"{a['kind']} b={a['batch']}",
        "cat": a["kind"],
        "ph": "X",
        "ts": span.start * 1e6,
        "dur": span.duration * 1e6,
        "pid": 0,
        "tid": 0,
        "args": {
            "decode_tokens": a["decode_tokens"],
            "prefill_tokens": a["prefill_tokens"],
            "context_tokens": a["context_tokens"],
        },
    }


class EngineTracer(EngineEvents):
    """Collects step traces during an engine run (an event sink).

    Steps are stored as simulated-domain span records; when the global
    telemetry subsystem is enabled they are also appended to
    ``repro.obs.tracer()`` so they appear in the merged trace export.
    Failure/retry lifecycle instants (rejections, timeouts, fault
    injections, retries) are kept in a separate event list so
    :attr:`steps` stays a pure iteration timeline.
    """

    def __init__(self) -> None:
        self._spans: list[SpanRecord] = []
        self._events: list[SpanRecord] = []

    @property
    def steps(self) -> list[StepTrace]:
        return [StepTrace.from_span(s) for s in self._spans]

    def spans(self) -> list[SpanRecord]:
        """The raw simulated-domain span records (one per step)."""
        return list(self._spans)

    def record(
        self,
        start: float,
        duration: float,
        kind: str,
        batch: int,
        decode_tokens: int,
        prefill_tokens: int,
        context_tokens: int,
    ) -> None:
        if kind not in _STEP_KINDS:
            raise ValueError(f"unknown step kind {kind!r}")
        span = StepTrace(
            index=len(self._spans), start=start, duration=duration, kind=kind,
            batch=batch, decode_tokens=decode_tokens,
            prefill_tokens=prefill_tokens, context_tokens=context_tokens,
        ).to_span(span_id=len(self._spans))
        if obs.enabled():
            # Forward into the global tracer: it assigns the span id and
            # keeps the record, so the merged export sees it too.
            span = obs.tracer().add_span(
                span.name, start, duration, cat=STEP_SPAN_CAT, domain="sim",
                **span.attrs,
            )
        self._spans.append(span)

    def events(self) -> list[SpanRecord]:
        """The recorded lifecycle instants, in record order."""
        return list(self._events)

    def _instant(self, event: str, ts: float, **attrs: object) -> None:
        """Record a lifecycle instant at simulated time ``ts``."""
        name = f"engine.{event}"
        if obs.enabled():
            record = obs.tracer().event(
                name, ts=ts, cat=event, domain="sim", **attrs
            )
        else:
            record = SpanRecord(
                span_id=len(self._events), parent_id=None, name=name, cat=event,
                start=ts, duration=0.0, domain="sim", instant=True, attrs=attrs,
            )
        self._events.append(record)

    # ------------------------------------------------------------------
    # Engine events
    # ------------------------------------------------------------------

    def step_cost(self, step: Step) -> None:
        self.record(
            step.start, step.dt, step.kind, step.batch, step.decode_tokens,
            step.prefill_tokens, step.context_tokens,
        )

    def reject(self, req: Request, clock: float) -> None:
        self._instant("rejected", clock, request_id=req.request_id,
                      reason=req.failure_reason)

    def timeout(self, req: Request, clock: float) -> None:
        self._instant("timed_out", clock, request_id=req.request_id,
                      reason=req.failure_reason)

    def fail(self, req: Request, clock: float) -> None:
        self._instant("failed", clock, request_id=req.request_id,
                      reason=req.failure_reason)

    def retry(self, req: Request, clock: float, reason: str) -> None:
        self._instant("retry", clock, request_id=req.request_id,
                      reason=reason, attempt=req.retries)

    def fault(self, kind: str, clock: float, req: Request | None = None) -> None:
        ids = {} if req is None else {"request_id": req.request_id}
        self._instant("fault", clock, kind=kind, **ids)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def total_time(self) -> float:
        return sum(s.duration for s in self._spans)

    def time_by_kind(self) -> dict[str, float]:
        out = {k: 0.0 for k in _STEP_KINDS}
        for s in self._spans:
            out[s.attrs["kind"]] += s.duration
        return out

    def longest_step(self) -> StepTrace | None:
        span = max(self._spans, key=lambda s: s.duration, default=None)
        return None if span is None else StepTrace.from_span(span)

    def tokens_per_second_curve(self, window: int = 16) -> list[float]:
        """Decode throughput over a sliding window of steps."""
        if window < 1:
            raise ValueError("window must be positive")
        curve = []
        for i in range(len(self._spans)):
            lo = max(0, i - window + 1)
            chunk = self._spans[lo : i + 1]
            dt = sum(s.duration for s in chunk)
            toks = sum(s.attrs["decode_tokens"] for s in chunk)
            curve.append(toks / dt if dt > 0 else 0.0)
        return curve

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_records(self) -> list[dict]:
        return [asdict(s) for s in self.steps]

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write chrome://tracing 'trace event' JSON (microsecond units).

        Lifecycle instants (rejections, timeouts, failures, retries,
        faults) appear as
        ``ph: "i"`` markers after the step events; runs with no such
        events produce the legacy byte-identical step-only trace.
        """
        events = [_step_chrome_event(s) for s in self._spans]
        events += [
            {
                "name": e.name,
                "cat": e.cat,
                "ph": "i",
                "s": "g",
                "ts": e.start * 1e6,
                "pid": 0,
                "tid": 0,
                "args": dict(e.attrs),
            }
            for e in self._events
        ]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return path
