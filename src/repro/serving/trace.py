"""The serving engine's event vocabulary: :class:`EngineEvents` is the
stream ``ServingEngine.run`` reports to its sinks, and :class:`Step` its
record of one loop iteration: ``k`` steps of one batch (clock, phase mix,
batch, token counts, cost split per step).  The telemetry sink
(:mod:`repro.serving.sinks`) writes each step (:meth:`Step.each`) to the
obs simulated timeline as a span of category :data:`STEP_SPAN_CAT`."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from repro.serving.engine import ThroughputReport
    from repro.serving.request import Request

__all__ = ["Step", "StepView", "EngineEvents"]

#: Span category used for engine-step spans on the simulated timeline.
STEP_SPAN_CAT = "engine.step"
#: Per-step framework overhead: scheduler, sampling, python/driver time.
DEFAULT_STEP_OVERHEAD = 100e-6


class StepView(NamedTuple):
    """One step of a :class:`Step` record."""

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


class Step(NamedTuple):
    """One loop iteration, as the event stream reports it: ``k`` steps of
    one fixed batch (only a pure-decode batch takes ``k > 1``).  Its fields
    are those of :class:`StepView` but ``end`` and ``overhead``, plus ``k``
    and the straggler ``stall`` inside ``dt``.  ``dt``, ``attention``,
    ``kv_dequant`` and ``stall`` are sequences over the steps;
    ``context_tokens`` (the first step's) grows by ``decode_tokens`` a
    step."""

    kind: str
    start: float
    k: int
    dt: Sequence[float]
    batch: int
    decode_tokens: int
    prefill_tokens: int
    context_tokens: int
    gemm: float
    attention: Sequence[float]
    kv_dequant: Sequence[float]
    stall: Sequence[float]
    prefill_id: int
    serialized: bool

    def costs(self) -> Iterator[tuple[float, float, float, float, float]]:
        """Each step's ``(end, dt, attention, kv_dequant, overhead)``, in
        order: the per-step fields of :meth:`each` as plain tuples.  A
        step ends where the engine's clock does (``start + dt``, added
        step by step).  Its overhead is the rest of its time; a
        whole-prompt prefill's is :data:`DEFAULT_STEP_OVERHEAD`."""
        clock, gemm, serialized = self.start, self.gemm, self.serialized
        for dt, attn, kv_dq in zip(self.dt, self.attention, self.kv_dequant):
            clock += dt
            yield (
                clock, dt, attn, kv_dq,
                DEFAULT_STEP_OVERHEAD if serialized else dt - gemm - attn,
            )

    def each(self) -> Iterator[StepView]:
        """The record's steps in order (:meth:`costs`, with the record's
        fields and each step's start and context)."""
        start, n = self.start, self.decode_tokens
        for j, (end, dt, attn, kv_dq, overhead) in enumerate(self.costs()):
            yield StepView(
                self.kind, start, end, dt, self.batch, n, self.prefill_tokens,
                self.context_tokens + n * j, self.gemm, attn, kv_dq, overhead,
                self.prefill_id, self.serialized,
            )
            start = end


class EngineEvents:
    """The engine's event vocabulary, as no-ops: a sink overrides the events
    it consumes (docs/observability.md, "Engine events").

    ``ServingEngine.run`` reports each event to every attached sink, on the
    simulated clock.  ``arrive`` comes once per request, as soon as the
    clock has reached its ``arrival_time`` and before any other event of
    that request.  ``fault`` marks an injection (``req`` given when it is
    aimed at one request); ``fault_hit`` names the request a fault struck.
    Per :class:`Step` record, ``step_cost`` comes before any request state
    advances and ``step_end`` after, once its tokens have landed; a record
    of several steps fires no request event in between.  ``degraded``
    closes a step run with shrunken admission knobs.

    An admission pass takes the pool blocks of all its admissions at once,
    then reports them in order, each ``admit`` followed (without chunked
    prefill) by its prefill record; ``kv_taken`` comes first, with the
    pass's ``tokens`` and ``blocks``.  A sink that reads the pool before a
    request's ``admit`` counts that request's ``prompt_len`` tokens and
    ``blocks_needed(prompt_len)`` blocks as not yet taken.
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
    def kv_taken(self, tokens: int, blocks: int) -> None: ...
    def end_run(self, report: ThroughputReport) -> None: ...
