"""The serving engine's event vocabulary: :class:`EngineEvents` is the
stream ``ServingEngine.run`` reports to its sinks, and :class:`Step` its
record of one engine iteration (clock, phase mix, batch, token counts,
cost split).  The telemetry sink (:mod:`repro.serving.sinks`) writes each
step to the obs simulated timeline as a span of category
:data:`STEP_SPAN_CAT`."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from repro.serving.engine import ThroughputReport
    from repro.serving.request import Request

__all__ = ["Step", "EngineEvents"]

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
