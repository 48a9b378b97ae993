"""The serving engine's event vocabulary and an in-memory recorder of it.

:class:`EngineEvents` is the stream ``ServingEngine.run`` reports to its
sinks, and :class:`Step` is its record of one engine iteration (clock,
phase mix, batch, token counts, cost split).  :class:`EngineTracer` is the
sink that keeps a run's steps and lifecycle instants in memory, for a
caller to inspect after the run.

The obs timeline has one writer: the engine's telemetry sink records each
step as a simulated-domain span (category :data:`STEP_SPAN_CAT`) next to
the request lifecycle instants whenever ``repro.obs`` is enabled, so the
merged chrome export (``repro.obs.write_snapshot``) shows the simulated
timeline whether or not a tracer is attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.obs import SpanRecord

if TYPE_CHECKING:
    from repro.serving.engine import ThroughputReport
    from repro.serving.request import Request

__all__ = ["Step", "EngineEvents", "EngineTracer"]

#: Span category used for engine-step spans on the simulated timeline.
STEP_SPAN_CAT = "engine.step"


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
    simulated clock.  ``arrive`` comes once per request, as soon as the
    clock has reached its ``arrival_time`` and before any other event of
    that request.  ``fault`` marks an injection (``req`` given when it is
    aimed at one request); ``fault_hit`` names the request a fault struck.
    Per step, ``step_cost`` comes before any request state advances and
    ``step_end`` after, once the step's tokens have landed; ``degraded``
    closes a step run with shrunken admission knobs.
    """

    def arrive(self, req: Request, clock: float) -> None: ...
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
    def degraded(self, clock: float) -> None: ...
    def end_run(self, report: ThroughputReport) -> None: ...


class EngineTracer(EngineEvents):
    """An in-memory recorder of one engine run (an event sink).

    :attr:`steps` holds the :class:`Step` records in the order the engine
    reported them; :meth:`events` holds the failure/retry lifecycle
    instants (rejections, timeouts, failures, retries, fault injections)
    as simulated-domain instant records, so :attr:`steps` stays a pure
    iteration timeline.  The tracer writes nothing to ``repro.obs``: the
    telemetry sink puts the same steps and lifecycle facts on the obs
    timeline whenever telemetry is enabled.
    """

    def __init__(self) -> None:
        self.steps: list[Step] = []
        self._events: list[SpanRecord] = []

    def events(self) -> list[SpanRecord]:
        """The recorded lifecycle instants, in record order."""
        return list(self._events)

    def _instant(self, event: str, ts: float, **attrs: object) -> None:
        """Record a lifecycle instant at simulated time ``ts``."""
        self._events.append(SpanRecord(
            span_id=len(self._events), parent_id=None, name=f"engine.{event}",
            cat=event, start=ts, duration=0.0, domain="sim", instant=True,
            attrs=attrs,
        ))

    # ------------------------------------------------------------------
    # Engine events
    # ------------------------------------------------------------------

    def step_cost(self, step: Step) -> None:
        self.steps.append(step)

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
