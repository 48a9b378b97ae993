"""The serving engine's built-in sinks of engine events
(:class:`repro.serving.trace.EngineEvents`): :class:`_EngineTelemetry`
while ``repro.obs`` is enabled, :class:`_LiveHooks` while a
live-observability bundle is attached."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.obs import live as live_obs
from repro.serving.paged_kv import PagedKVManager
from repro.serving.request import Request
from repro.serving.trace import STEP_SPAN_CAT, EngineEvents, Step

if TYPE_CHECKING:
    from repro.serving.engine import ThroughputReport


class _EngineTelemetry(EngineEvents):
    """Event sink for per-run ``repro.obs`` recording: engine steps and
    request lifecycle events on the simulated timeline (its one writer),
    TTFT/TPOT histograms, step counters, KV gauges.

    Instantiated only while telemetry is enabled, so the disabled engine
    pays a single ``obs.enabled()`` check per run.
    """

    def __init__(self, kv: PagedKVManager):
        self._kv = kv
        self._timeline = obs.tracer()
        self._step_index = 0
        # Taken by the pool for admissions not yet reported (kv_taken).
        self._untaken_tokens = self._untaken_blocks = 0
        m = obs.metrics()

        def counter(name, **labels):
            return m.counter(name, obs.metric_help(name), **labels)

        def histogram(name, **buckets):
            return m.histogram(name, obs.metric_help(name), **buckets)

        def gauge(name):
            return m.gauge(name, obs.metric_help(name))

        self.admitted = counter("serving.requests_admitted_total")
        self.finished = counter("serving.requests_finished_total")
        self.preempted = counter("serving.preemptions_total")
        self.output_tokens = counter("serving.output_tokens_total")
        self.rejected = counter("serving.rejected_total")
        self.retries = counter("serving.retries_total")
        self.failed = counter("serving.requests_failed_total")
        self.timed_out = counter("serving.requests_timed_out_total")
        self.deadline_misses = counter("serving.deadline_misses_total")
        self.degraded_steps = counter("serving.degraded_steps_total")
        self.faults = counter("serving.faults_injected_total", labelnames=("kind",))
        self.steps = counter("serving.engine_steps_total", labelnames=("kind",))
        self.step_seconds = histogram("serving.step_seconds")
        self.batch_size = histogram(
            "serving.batch_size",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        )
        self.ttft = histogram("serving.ttft_seconds")
        self.tpot = histogram("serving.tpot_seconds")
        self.e2e = histogram("serving.e2e_seconds")
        self.kv_utilization = gauge("serving.kv_utilization")
        self.kv_fragmentation = gauge("serving.kv_fragmentation")
        self.kv_free_blocks = gauge("serving.kv_free_blocks")

    def request_event(self, stage: str, req: Request, ts: float, **attrs) -> None:
        obs.event(
            f"serving.request.{stage}", ts=ts, cat="request", domain="sim",
            request_id=req.request_id, prompt_len=req.prompt_len, **attrs,
        )

    def arrive(self, req: Request, clock: float) -> None:
        self.request_event("queued", req, req.arrival_time)

    def kv_taken(self, tokens: int, blocks: int) -> None:
        self._untaken_tokens, self._untaken_blocks = tokens, blocks

    def admit(self, req: Request, clock: float) -> None:
        self._untaken_tokens -= req.prompt_len
        self._untaken_blocks -= self._kv.blocks_needed(req.prompt_len)
        self.admitted.inc()
        self.request_event("prefill", req, clock)

    def first_token(self, req: Request, clock: float) -> None:
        self.ttft.observe(req.ttft)
        self.request_event("decode", req, clock)

    def finish(self, req: Request, clock: float) -> None:
        self.finished.inc()
        if not req.slo_met:  # always met without SLOs
            self.deadline_misses.inc()
        self.tpot.observe(req.tpot)
        self.e2e.observe(req.e2e)
        self.request_event("finished", req, clock)

    def preempt(self, req: Request, clock: float, lost: int) -> None:
        self.preempted.inc()
        self.request_event("preempted", req, clock)

    def reject(self, req: Request, clock: float) -> None:
        self.rejected.inc()
        self.request_event("rejected", req, clock, reason=req.failure_reason)

    def retry(self, req: Request, clock: float, reason: str) -> None:
        self.retries.inc()
        self.request_event("retry", req, clock, attempt=req.retries, reason=reason)

    def fail(self, req: Request, clock: float) -> None:
        self.failed.inc()
        self.request_event("failed", req, clock, reason=req.failure_reason)

    def timeout(self, req: Request, clock: float) -> None:
        self.timed_out.inc()
        self.deadline_misses.inc()
        self.request_event("timed_out", req, clock, reason=req.failure_reason)

    def fault(self, kind: str, clock: float, req: Request | None = None) -> None:
        self.faults.labels(kind=kind).inc()
        ids = {} if req is None else {"request_id": req.request_id}
        obs.event(
            "serving.fault", ts=clock, cat="fault", domain="sim", kind=kind,
            **ids,
        )

    def step_cost(self, step: Step) -> None:
        for s in step.each():
            self._timeline.add_span(
                f"{s.kind} b={s.batch}", s.start, s.dt,
                cat=STEP_SPAN_CAT, domain="sim", index=self._step_index,
                kind=s.kind, batch=s.batch, decode_tokens=s.decode_tokens,
                prefill_tokens=s.prefill_tokens,
                context_tokens=s.context_tokens,
            )
            self._step_index += 1

    def step_end(self, step: Step, tokens: int) -> None:
        if tokens:
            self.output_tokens.inc(tokens)
        self.steps.labels(kind=step.kind).inc(step.k)
        for dt in step.dt:
            self.step_seconds.observe(dt)
            self.batch_size.observe(step.batch)
        # As of this step: an admission pass's later requests are not in.
        kv, blocks = self._kv, self._untaken_blocks
        utilization = kv.utilization(-self._untaken_tokens, -blocks)
        self.kv_utilization.set(utilization)
        self.kv_fragmentation.set(1.0 - utilization)
        self.kv_free_blocks.set(kv.free_blocks + blocks)

    def degraded(self, clock: float) -> None:
        self.degraded_steps.inc()


#: The window metrics of a heartbeat row, in column order after its clock.
_HEARTBEAT_METRICS = (
    "serving.step_seconds", "serving.batch_size", "serving.output_tokens_total",
    "serving.kv_utilization", "serving.kv_free_blocks", "serving.kv_shared_blocks",
    "serving.step_gemm_seconds", "serving.step_attention_seconds",
    "serving.step_kv_dequant_seconds",
)
#: The window metrics sampled once per request, buffered like heartbeats.
_REQUEST_METRICS = (
    "serving.ttft_seconds", "serving.tpot_seconds", "serving.e2e_seconds",
)


class _LiveHooks(EngineEvents):
    """Event sink feeding the attached live-observability bundle
    (:mod:`repro.obs.live`): a per-step heartbeat with sliding-window
    samples, streaming SLO outcomes, and one call per lifecycle event or
    step charge to the record store ``live.flights`` (timelines plus the
    cost ledger's accounts, :mod:`repro.obs.attrib`).

    Instantiated only when a bundle is attached, so the detached engine
    pays one ``live_obs.active()`` read per run (the same zero-cost
    discipline as :class:`_EngineTelemetry`).  Every timestamp handed over
    is the engine's *simulated* clock — the live layer never sees wall
    time, keeping chaos runs bit-reproducible.

    Heartbeats (:meth:`step_end`) and the per-request TTFT/TPOT/e2e
    samples are buffered and handed to the live layer in batches
    (:meth:`LiveObs.heartbeat_batch`), amortizing the per-step lock/sample
    cost at high concurrency; the pool's free-list fragmentation gauge is
    sampled once per batch.  The buffer flushes every ``FLUSH_EVERY``
    steps, before every SLO outcome, and before every lifecycle event
    while a heartbeat hook reads the bundle, so what the SLO monitor and
    the hook see is what unbuffered per-step feeding gives.
    Steps are charged at :meth:`step_cost`, before request state advances,
    so every transition settles at the current clock and each record's
    queue, prefill and decode seconds sum to its e2e; a step costs the
    ledger O(1) whatever the number of records.  A record's KV holdings
    settle at the pool events that change them: admission, each block
    crossing (:meth:`kv_grown`, the pool's ``on_grow`` hook) and release.
    A multi-step record may take blocks on any of its steps, so its
    crossings settle at their own step's end clock, and each heartbeat
    row, like a flush that falls inside the record, reads the pool with
    the blocks of the record's later steps counted as free: float for
    float what one step per iteration gives.  Likewise, during an
    admission pass every pool read counts the tokens and blocks of the
    pass's requests not yet admitted as not taken (:meth:`kv_taken`).
    """

    #: Heartbeats buffered before a bulk hand-off to the live layer.
    FLUSH_EVERY = 64

    def __init__(self, live: live_obs.LiveObs, kv: PagedKVManager):
        self._live = live
        self._kv = kv
        self._flights = live.flights
        self._hooked = live.hooked
        self._hb: list[tuple] = []  # buffered heartbeat rows
        # Buffered request samples: metric -> (clocks, values).
        self._samples = {name: ([], []) for name in _REQUEST_METRICS}
        # Of the charged record: its steps (Step.costs), and the KV blocks
        # each step took (kv_grown).
        self._steps: list[tuple[float, ...]] = []
        self._taken = [0]
        # Taken by the pool for admissions not yet reported (kv_taken).
        self._untaken_tokens = self._untaken_blocks = 0

    def flush(self, untaken: int = 0) -> None:
        """Hand the buffered request samples to the live layer, one window
        write per metric, then the buffered heartbeats, oldest first, with
        one free-list fragmentation sample at the last one's clock, as of
        its step: the ``untaken`` blocks the record's later steps took,
        and those of the admission pass's requests not yet admitted, count
        as free.  (A hooked bundle flushes before every event, so its
        pending samples all precede its pending heartbeats.)"""
        for name, (clocks, values) in self._samples.items():
            if clocks:
                self._live.windows.extend((name,), values, clocks)
                clocks.clear()
                values.clear()
        if self._hb:
            rows = np.array(self._hb, dtype=np.float64)
            self._hb.clear()
            self._live.heartbeat_batch(
                rows[:, 0], _HEARTBEAT_METRICS, rows[:, 1:]
            )
            self._live.sample(
                "serving.kv_freelist_frag",
                self._kv.freelist_fragmentation(untaken + self._untaken_blocks),
                float(rows[-1, 0]),
            )

    def _sample(self, name: str, value: float, clock: float) -> None:
        """Buffer one request sample of a window metric."""
        clocks, values = self._samples[name]
        clocks.append(clock)
        values.append(value)

    def _sync(self) -> None:
        """Before a lifecycle event: with a heartbeat hook reading the
        bundle, hand the buffered heartbeats over first, so the hook sees
        the records as of its own step."""
        if self._hooked:
            self.flush()

    def _slo_outcome(self, req: Request, clock: float, met: bool) -> None:
        """Feed one SLO outcome after the heartbeats before it: the
        monitor slides its window step by step."""
        self.flush()
        self._live.slo.record(clock, met=met, request_id=req.request_id)

    @staticmethod
    def _has_slo(req: Request) -> bool:
        return req.ttft_slo is not None or req.e2e_slo is not None

    def arrive(self, req: Request, clock: float) -> None:
        self._sync()
        self._flights.queued(req)

    def kv_taken(self, tokens: int, blocks: int) -> None:
        self._untaken_tokens, self._untaken_blocks = tokens, blocks

    def admit(self, req: Request, clock: float) -> None:
        self._sync()
        kv = self._kv
        blocks = kv.blocks_needed(req.prompt_len)
        self._untaken_tokens -= req.prompt_len
        self._untaken_blocks -= blocks
        self._flights.admitted(
            req, clock, kv_blocks=blocks,
            kv_row=kv.sequence_row(req.request_id),
            shared_blocks=kv.shared_blocks
            and kv.sequence_shared_blocks(req.request_id),
        )

    def kv_grown(self, kv_rows: np.ndarray, j: int) -> None:
        """The pool rows ``kv_rows`` each took a block as the record's
        step ``j`` (from 0) landed (the pool's ``on_grow`` hook): settled
        at that step's end clock."""
        self._flights.kv_grown(kv_rows, self._steps[j][0])
        self._taken[j] += kv_rows.size

    def first_token(self, req: Request, clock: float) -> None:
        self._sync()
        self._flights.first_token(req.request_id, clock)
        self._sample("serving.ttft_seconds", req.ttft, clock)

    def finish(self, req: Request, clock: float) -> None:
        self._sync()
        has_slo = self._has_slo(req)
        self._flights.close(
            req, clock, outcome="finished", generated=req.generated,
            slo_met=req.slo_met if has_slo else None,
        )
        self._sample("serving.tpot_seconds", req.tpot, clock)
        self._sample("serving.e2e_seconds", req.e2e, clock)
        if has_slo:
            self._slo_outcome(req, clock, req.slo_met)

    def preempt(self, req: Request, clock: float, lost: int) -> None:
        self._sync()
        self._flights.preempted(req.request_id, clock, lost_tokens=lost)

    def _close_unserved(
        self, req: Request, clock: float, outcome: str, **details
    ) -> None:
        """Close the record of a request that ends without finishing
        (rejected, failed, timed out)."""
        self._sync()
        self._flights.close(
            req, clock, outcome=outcome, reason=req.failure_reason, **details
        )

    def reject(self, req: Request, clock: float) -> None:
        self._close_unserved(req, clock, "rejected")

    def retry(self, req: Request, clock: float, reason: str) -> None:
        self._sync()
        self._flights.retry(
            req.request_id, clock, reason=reason, attempt=req.retries
        )

    def fail(self, req: Request, clock: float) -> None:
        self._close_unserved(req, clock, "failed", generated=req.generated)
        if self._has_slo(req):
            self._slo_outcome(req, clock, False)

    def timeout(self, req: Request, clock: float) -> None:
        self._close_unserved(
            req, clock, "timed_out", generated=req.generated, slo_met=False
        )
        # Timeouts only happen to requests with deadlines configured.
        self._slo_outcome(req, clock, False)

    def fault_hit(self, kind: str, req: Request, clock: float) -> None:
        self._sync()
        self._flights.fault(req.request_id, clock, kind=kind)

    def prefill_done(self, req: Request, clock: float) -> None:
        self._flights.prefill_done(req.request_id)  # a decoder from now on

    def step_cost(self, step: Step) -> None:
        """Charge each step of the record to the records' ledger accounts.
        A serialized prefill stalls every other admitted request for its
        duration (the decode gap).  The steps are kept for the block
        crossings of each (:meth:`kv_grown`) and the heartbeats
        (:meth:`step_end`) of the record."""
        steps = self._steps = list(step.costs())
        self._taken = [0] * step.k
        charge = self._flights.step_cost
        gemm, prefill_id, serialized = step.gemm, step.prefill_id, step.serialized
        for _, dt, attn, kv_dq, overhead in steps:
            charge(dt, gemm, attn - kv_dq, kv_dq, overhead, prefill_id, serialized)

    def step_end(self, step: Step, tokens: int) -> None:
        """Buffer a heartbeat row of sliding-window samples per step, each
        with the KV gauges at its own clock: read now, as no request event
        fires inside a multi-step record, whose steps only add tokens and
        take blocks, with the tokens and blocks of the later steps taken
        back out, and those of an admission pass's later requests."""
        kv, k, taken, hb = self._kv, step.k, self._taken, self._hb
        shared, per_step = kv.shared_blocks, tokens // k
        batch, n, gemm = step.batch, step.decode_tokens, step.gemm
        untaken_tokens, untaken = self._untaken_tokens, self._untaken_blocks
        free = kv.free_blocks + untaken
        later = sum(taken)  # blocks the steps after step j took
        for j, (end, dt, attn, kv_dq, _) in enumerate(self._steps):
            later -= taken[j]
            hb.append((
                end, dt, batch, per_step,
                kv.utilization(n * (j + 1 - k) - untaken_tokens, -later - untaken),
                free + later, shared, gemm, attn, kv_dq,
            ))
            if len(hb) == self.FLUSH_EVERY:
                self.flush(later)

    def end_run(self, report: ThroughputReport) -> None:
        """Drain the heartbeat tail and deposit the KV pool's economics
        summary (computed once — not per step) in the record store."""
        self.flush()
        self._kv.on_grow = None
        self._flights.set_pool_summary({
            "free_blocks": self._kv.free_blocks,
            "used_blocks": self._kv.used_blocks,
            "shared_blocks": self._kv.shared_blocks,
            "freelist_fragmentation": self._kv.freelist_fragmentation(),
            "refcount_distribution": self._kv.refcount_distribution(),
        })
