"""The COMET serving engine simulator: continuous batching over the GPU
timing model (paper Sections 5 and 6.4).

The engine plays the standard prefill/decode loop of an LLM server against
the kernel cost models:

* every admitted request is prefilled (one GEMM pass at ``m = prompt_len``
  per layer stack plus quadratic attention);
* each engine step decodes one token for every running sequence (GEMM at
  ``m = batch``) and streams the whole KV history through the attention
  roofline;
* admission is bounded by the paged-KV pool — reserving each request's full
  sequence so decoding never deadlocks — and by ``max_batch``.

Because the three knobs a :class:`ServingSystem` sets (kernel, weight bytes,
KV format) all enter this loop, the Figure 10/11/12/15 comparisons fall out
of one engine.

On top of the clean loop sits a resilience layer (``docs/resilience.md``):
infeasible requests are rejected instead of stalling the scheduler, expired
requests are shed or timed out against their SLOs, transient faults from a
:class:`repro.serving.faults.FaultPlan` trigger bounded backoff retries,
and an optional degradation policy shrinks the admission knobs under
sustained KV pressure.  With no fault plan, no SLOs, and degradation off,
the loop is arithmetically identical to the clean engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.obs import live as live_obs
from repro.gpu.spec import A100_80G_SXM4, GPUSpec
from repro.kernels.attention import (
    DECODE_ATTENTION,
    PREFILL_ATTENTION,
    kv_stream_seconds,
)
from repro.kernels.tiling import GEMMShape
from repro.model.config import ModelConfig
from repro.serving.batchstate import BatchState, DeadlineHeap, RetryHeap
from repro.serving.faults import FaultKind, FaultPlan
from repro.serving.memory_planner import DEFAULT_HBM_BYTES, plan_memory
from repro.serving.paged_kv import PagedKVManager
from repro.serving.request import Phase, Request
from repro.serving.systems import ServingSystem

if TYPE_CHECKING:  # deferred: trace imports obs eagerly, engine lazily
    from repro.serving.stepprof import StepPhaseProfiler
    from repro.serving.trace import EngineTracer

__all__ = ["EngineConfig", "ThroughputReport", "ServingEngine"]

#: Per-step framework overhead: scheduler, sampling, python/driver time.
DEFAULT_STEP_OVERHEAD = 100e-6


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    Attributes:
        max_batch: concurrent-sequence cap.
        block_tokens: paged-KV block granularity.
        hbm_bytes: usable device memory.
        step_overhead: per-iteration framework overhead.
        max_steps: safety cap on engine iterations.
        decode_attention: 'flash' (Flash-Decoding) or 'naive' — the paper's
            Section 7 attention-kernel axis.
        prefill_attention: 'flash' (FlashAttention) or 'naive'.
        kv_capacity_slack: fraction of the KV pool's token capacity that
            full-sequence admission may commit.  Paged allocation rounds
            every sequence up to block granularity, so a pool that is
            exactly "full" in token terms can still fail a block
            allocation; committing only this fraction absorbs the
            rounding.  1.0 disables the slack.
        max_retries: transient-fault retry budget per request; a request
            whose fault count exceeds it ends ``FAILED``.
        retry_backoff: base re-queue delay after a transient fault; the
            n-th retry waits ``retry_backoff * 2**(n-1)`` seconds.
        degrade_under_pressure: enable graceful degradation — shrink the
            effective ``max_batch`` / ``prefill_chunk_tokens`` while the KV
            pool stays hot instead of thrashing on preemptions.
        degrade_pressure: KV-pool block-usage fraction treated as pressure.
        degrade_window: consecutive hot (cool) steps before the degradation
            policy shrinks (re-grows) the admission knobs.
    """

    max_batch: int = 512
    block_tokens: int = 16
    hbm_bytes: float = DEFAULT_HBM_BYTES
    step_overhead: float = DEFAULT_STEP_OVERHEAD
    max_steps: int = 1_000_000
    decode_attention: str = "flash"
    prefill_attention: str = "flash"
    reserve_full_sequence: bool = True
    #: When set, prompts prefill in chunks of this many tokens piggybacked
    #: onto decode iterations (Sarathi-style stall-free batching, one of
    #: the Section 7 scheduling integrations); None = whole-prompt prefill.
    prefill_chunk_tokens: int | None = None
    #: Megatron-style tensor parallelism across this many identical GPUs
    #: (1 = the paper's single-GPU setting).
    tensor_parallel: int = 1
    kv_capacity_slack: float = 0.98
    max_retries: int = 2
    retry_backoff: float = 0.05
    degrade_under_pressure: bool = False
    degrade_pressure: float = 0.92
    degrade_window: int = 4

    def __post_init__(self) -> None:
        if self.decode_attention not in DECODE_ATTENTION:
            raise ValueError(
                f"unknown decode_attention {self.decode_attention!r}; "
                f"known: {sorted(DECODE_ATTENTION)}"
            )
        if self.prefill_attention not in PREFILL_ATTENTION:
            raise ValueError(
                f"unknown prefill_attention {self.prefill_attention!r}; "
                f"known: {sorted(PREFILL_ATTENTION)}"
            )
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens <= 0:
            raise ValueError("prefill_chunk_tokens must be positive or None")
        if self.tensor_parallel < 1:
            raise ValueError("tensor_parallel must be >= 1")
        if not 0.0 < self.kv_capacity_slack <= 1.0:
            raise ValueError("kv_capacity_slack must be in (0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if not 0.0 < self.degrade_pressure <= 1.0:
            raise ValueError("degrade_pressure must be in (0, 1]")
        if self.degrade_window < 1:
            raise ValueError("degrade_window must be >= 1")


@dataclass
class ThroughputReport:
    """Outcome of a simulated serving run."""

    system: str
    model: str
    requests_completed: int
    output_tokens: int
    sim_seconds: float
    prefill_seconds: float
    decode_seconds: float
    peak_batch: int
    kv_token_capacity: int
    gemm_seconds: float = 0.0
    attention_seconds: float = 0.0
    overhead_seconds: float = 0.0
    preemptions: int = 0
    #: Longest wall-clock gap between consecutive decode iterations — the
    #: stall a running user experiences when another request prefills.
    max_decode_gap: float = 0.0
    # ---------------------------------------------------- resilience
    requests_failed: int = 0
    requests_rejected: int = 0
    requests_timed_out: int = 0
    retries: int = 0
    deadline_misses: int = 0
    faults_injected: int = 0
    degraded_steps: int = 0
    #: Output tokens of requests that finished within every configured SLO.
    good_output_tokens: int = 0
    #: Compute iterations the loop executed (batch steps, not admissions).
    engine_steps: int = 0

    @property
    def throughput(self) -> float:
        """Output tokens per second — the paper's headline metric."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.output_tokens / self.sim_seconds

    @property
    def goodput(self) -> float:
        """SLO-attained output tokens per second: only tokens of requests
        that finished within their deadlines count (docs/resilience.md)."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.good_output_tokens / self.sim_seconds

    def summary(self) -> str:
        """One-line run summary (``repro.cli serve`` prints this)."""
        parts = [
            f"{self.system} on {self.model}",
            f"{self.requests_completed} requests",
            f"{self.output_tokens} tokens in {self.sim_seconds:.2f}s",
            f"{self.throughput:.0f} tok/s",
        ]
        if self.good_output_tokens != self.output_tokens:
            parts.append(f"goodput {self.goodput:.0f} tok/s")
        trouble = []
        if self.requests_rejected:
            trouble.append(f"{self.requests_rejected} rejected")
        if self.requests_timed_out:
            trouble.append(f"{self.requests_timed_out} timed out")
        if self.requests_failed:
            trouble.append(f"{self.requests_failed} failed")
        if self.retries:
            trouble.append(f"{self.retries} retries")
        if trouble:
            parts.append(", ".join(trouble))
        return " | ".join(parts)

    def runtime_breakdown(self) -> dict[str, float]:
        """Fractions of runtime in GEMM / attention / framework overhead —
        the paper's Section 7 accounting (~65% GEMM, ~32% attention)."""
        total = self.gemm_seconds + self.attention_seconds + self.overhead_seconds
        if total <= 0:
            return {"gemm": 0.0, "attention": 0.0, "overhead": 0.0}
        return {
            "gemm": self.gemm_seconds / total,
            "attention": self.attention_seconds / total,
            "overhead": self.overhead_seconds / total,
        }


class _EngineTelemetry:
    """Per-run ``repro.obs`` recording: request lifecycle events on the
    simulated timeline, TTFT/TPOT histograms, step counters, KV gauges.

    Instantiated only while telemetry is enabled, so the disabled engine
    pays a single ``obs.enabled()`` check per run.
    """

    def __init__(self, kv: PagedKVManager):
        self._kv = kv
        m = obs.metrics()

        def counter(name):
            return m.counter(name, obs.metric_help(name))

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
        self.faults = m.counter(
            "serving.faults_injected_total",
            obs.metric_help("serving.faults_injected_total"),
            labelnames=("kind",),
        )
        self.steps = m.counter(
            "serving.engine_steps_total",
            obs.metric_help("serving.engine_steps_total"),
            labelnames=("kind",),
        )
        self.step_seconds = m.histogram(
            "serving.step_seconds", obs.metric_help("serving.step_seconds")
        )
        self.batch_size = m.histogram(
            "serving.batch_size", obs.metric_help("serving.batch_size"),
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        )
        self.ttft = m.histogram(
            "serving.ttft_seconds", obs.metric_help("serving.ttft_seconds")
        )
        self.tpot = m.histogram(
            "serving.tpot_seconds", obs.metric_help("serving.tpot_seconds")
        )
        self.e2e = m.histogram(
            "serving.e2e_seconds", obs.metric_help("serving.e2e_seconds")
        )
        self.kv_utilization = gauge("serving.kv_utilization")
        self.kv_fragmentation = gauge("serving.kv_fragmentation")
        self.kv_free_blocks = gauge("serving.kv_free_blocks")

    def request_event(self, stage: str, req: Request, ts: float, **attrs) -> None:
        obs.event(
            f"serving.request.{stage}", ts=ts, cat="request", domain="sim",
            request_id=req.request_id, prompt_len=req.prompt_len, **attrs,
        )

    def on_admit(self, req: Request, clock: float) -> None:
        self.admitted.inc()
        self.request_event("queued", req, req.arrival_time)
        self.request_event("prefill", req, clock)

    def on_first_token(self, req: Request, clock: float) -> None:
        self.ttft.observe(clock - req.arrival_time)
        self.request_event("decode", req, clock)

    def on_finish(self, req: Request, clock: float) -> None:
        self.finished.inc()
        self.tpot.observe(
            (req.finish_time - req.first_token_time) / max(req.generated - 1, 1)
        )
        self.e2e.observe(clock - req.arrival_time)
        self.request_event("finished", req, clock)

    def on_preempt(self, req: Request, clock: float) -> None:
        self.preempted.inc()
        self.request_event("preempted", req, clock)

    def on_reject(self, req: Request, clock: float) -> None:
        self.rejected.inc()
        self.request_event("rejected", req, clock, reason=req.failure_reason)

    def on_retry(self, req: Request, clock: float) -> None:
        self.retries.inc()
        self.request_event("retry", req, clock, attempt=req.retries)

    def on_fail(self, req: Request, clock: float) -> None:
        self.failed.inc()
        self.request_event("failed", req, clock, reason=req.failure_reason)

    def on_timeout(self, req: Request, clock: float) -> None:
        self.timed_out.inc()
        self.request_event("timed_out", req, clock, reason=req.failure_reason)

    def on_fault(self, kind: str, clock: float) -> None:
        self.faults.labels(kind=kind).inc()
        obs.event(
            "serving.fault", ts=clock, cat="fault", domain="sim", kind=kind
        )

    def on_step(self, kind: str, dt: float, batch: int) -> None:
        self.steps.labels(kind=kind).inc()
        self.step_seconds.observe(dt)
        self.batch_size.observe(batch)
        self.kv_utilization.set(self._kv.utilization())
        self.kv_fragmentation.set(self._kv.fragmentation())
        self.kv_free_blocks.set(self._kv.free_blocks)


class _LiveHooks:
    """Feeds the attached live-observability bundle (:mod:`repro.obs.live`)
    from the serving loop: a per-step heartbeat with sliding-window samples,
    flight-recorder lifecycle events, and streaming SLO outcomes.

    Instantiated only when a bundle is attached, so the detached engine
    pays one ``live_obs.active()`` read per run (the same zero-cost
    discipline as :class:`_EngineTelemetry`).  Every timestamp handed over
    is the engine's *simulated* clock — the live layer never sees wall
    time, keeping chaos runs bit-reproducible.

    Heartbeats are buffered in a small ring and handed to the live layer
    in batches (:meth:`LiveObs.heartbeat_batch`), amortizing the per-step
    lock/sample cost at high concurrency.  The buffer flushes before every
    lifecycle event so sample/record ordering inside the live layer is
    identical to unbuffered per-step feeding, and :meth:`flush` drains the
    tail at the end of a run.

    The bundle's cost ledger (:class:`repro.obs.attrib.CostLedger`) is fed
    alongside: lifecycle hooks mirror the request transitions, and the
    engine charges each iteration's kernel components *before* advancing
    request state, so every transition settles at the current clock and
    the per-request components sum to e2e.
    """

    #: Heartbeats buffered before a bulk hand-off to the live layer.
    FLUSH_EVERY = 64

    def __init__(self, live: live_obs.LiveObs, kv: PagedKVManager):
        self._live = live
        self._kv = kv
        self._attrib = live.attrib
        self._hb = np.zeros((self.FLUSH_EVERY, 11), dtype=np.float64)
        self._hb_n = 0

    def flush(self) -> None:
        """Hand buffered heartbeats to the live layer, oldest first."""
        n = self._hb_n
        if n == 0:
            return
        self._hb_n = 0
        buf = self._hb
        self._live.heartbeat_batch(buf[:n, 0], {
            "serving.step_seconds": buf[:n, 1],
            "serving.batch_size": buf[:n, 2],
            "serving.output_tokens_total": buf[:n, 3],
            "serving.kv_utilization": buf[:n, 4],
            "serving.kv_free_blocks": buf[:n, 5],
            "serving.kv_shared_blocks": buf[:n, 6],
            "serving.kv_freelist_frag": buf[:n, 7],
            "serving.step_gemm_seconds": buf[:n, 8],
            "serving.step_attention_seconds": buf[:n, 9],
            "serving.step_kv_dequant_seconds": buf[:n, 10],
        })

    def _record_queued(self, req: Request) -> None:
        self._live.flights.queued(
            req.request_id,
            prompt_len=req.prompt_len,
            max_new_tokens=req.max_new_tokens,
            arrival_time=req.arrival_time,
        )

    @staticmethod
    def _has_slo(req: Request) -> bool:
        return req.ttft_slo is not None or req.e2e_slo is not None

    def on_admit(self, req: Request, clock: float) -> None:
        self.flush()
        self._record_queued(req)
        self._live.flights.admitted(
            req.request_id, clock,
            kv_blocks=self._kv.blocks_needed(req.prompt_len),
        )
        self._attrib.queued(req.request_id, req.arrival_time)
        self._attrib.admitted(
            req.request_id, clock,
            kv_row=self._kv.sequence_row(req.request_id),
            kv_blocks=self._kv.blocks_needed(req.prompt_len),
            shared_blocks=self._kv.sequence_shared_blocks(req.request_id),
        )

    def on_first_token(self, req: Request, clock: float) -> None:
        self.flush()
        self._live.flights.first_token(req.request_id, clock)
        self._attrib.first_token(req.request_id)
        self._live.sample(
            "serving.ttft_seconds", clock - req.arrival_time, clock
        )

    def on_finish(self, req: Request, clock: float) -> None:
        self.flush()
        fl = self._live.flights
        fl.kv_blocks(req.request_id, self._kv.blocks_needed(req.total_len))
        has_slo = self._has_slo(req)
        fl.close(
            req.request_id, clock, outcome="finished",
            generated=req.generated,
            slo_met=req.slo_met if has_slo else None,
        )
        self._attrib.close(req.request_id, clock, "finished")
        self._live.sample(
            "serving.tpot_seconds",
            (req.finish_time - req.first_token_time)
            / max(req.generated - 1, 1),
            clock,
        )
        self._live.sample(
            "serving.e2e_seconds", clock - req.arrival_time, clock
        )
        if has_slo:
            self._live.slo.record(
                clock, met=req.slo_met, request_id=req.request_id
            )

    def on_preempt(self, req: Request, clock: float) -> None:
        self.flush()
        self._live.flights.preempted(req.request_id, clock)
        self._attrib.requeued(req.request_id, clock)

    def on_reject(self, req: Request, clock: float) -> None:
        self.flush()
        self._record_queued(req)
        self._live.flights.close(
            req.request_id, clock, outcome="rejected",
            reason=req.failure_reason,
        )
        self._attrib.queued(req.request_id, req.arrival_time)
        self._attrib.close(req.request_id, clock, "rejected")

    def on_retry(self, req: Request, clock: float, reason: str) -> None:
        self.flush()
        self._live.flights.retry(
            req.request_id, clock, reason=reason, attempt=req.retries
        )
        self._attrib.requeued(req.request_id, clock)

    def on_fail(self, req: Request, clock: float) -> None:
        self.flush()
        self._record_queued(req)
        self._live.flights.close(
            req.request_id, clock, outcome="failed",
            reason=req.failure_reason, generated=req.generated,
        )
        self._attrib.queued(req.request_id, req.arrival_time)
        self._attrib.close(req.request_id, clock, "failed")
        if self._has_slo(req):
            self._live.slo.record(clock, met=False, request_id=req.request_id)

    def on_timeout(self, req: Request, clock: float) -> None:
        self.flush()
        self._record_queued(req)
        self._live.flights.close(
            req.request_id, clock, outcome="timed_out",
            reason=req.failure_reason, generated=req.generated,
            slo_met=False,
        )
        self._attrib.queued(req.request_id, req.arrival_time)
        self._attrib.close(req.request_id, clock, "timed_out")
        # Timeouts only happen to requests with deadlines configured.
        self._live.slo.record(clock, met=False, request_id=req.request_id)

    def on_request_fault(self, req: Request, kind: str, clock: float) -> None:
        self.flush()
        self._live.flights.fault(req.request_id, clock, kind=kind)

    def heartbeat(
        self, kind: str, dt: float, batch: int, tokens: int, clock: float,
        gemm: float = 0.0, attn: float = 0.0, kv_dq: float = 0.0,
    ) -> None:
        """Buffer one engine iteration's worth of sliding-window samples
        (KV gauges are snapshotted now, at the step's own clock)."""
        row = self._hb[self._hb_n]
        row[0] = clock
        row[1] = dt
        row[2] = float(batch)
        row[3] = float(tokens)
        row[4] = self._kv.utilization()
        row[5] = float(self._kv.free_blocks)
        row[6] = float(self._kv.shared_blocks)
        row[7] = self._kv.freelist_fragmentation()
        row[8] = gemm
        row[9] = attn
        row[10] = kv_dq
        self._hb_n += 1
        if self._hb_n == self.FLUSH_EVERY:
            self.flush()

    def on_prefill_done(self, req: Request) -> None:
        """The request's prompt completed this step: from the next charge
        it computes as a decoder (bucket flips at first token)."""
        self._attrib.prefill_done(req.request_id)

    def on_step_cost(
        self, dt: float, gemm: float, attn: float, kv_dq: float,
        overhead: float, prefill_id: int,
    ) -> None:
        """Charge one continuous-batching iteration to the cost ledger
        (called pre-advancement, at the step's end clock)."""
        self._attrib.step_cost(
            dt, gemm, attn, kv_dq, overhead,
            prefill_id=prefill_id,
            blocks_of_rows=self._kv.blocks_of_rows,
        )

    def on_prefill_cost(
        self, req: Request, dt: float, gemm: float, attn: float,
        overhead: float,
    ) -> None:
        """Charge a serialized whole-prompt prefill: every other admitted
        request stalls for the full duration (the decode gap)."""
        self._attrib.prefill_cost(
            req.request_id, dt, gemm, attn, overhead,
            blocks_of_rows=self._kv.blocks_of_rows,
        )
        self._attrib.prefill_done(req.request_id)

    def finalize(self) -> None:
        """End of run: drain the heartbeat tail and deposit the KV pool's
        economics summary (computed once — not per step) in the ledger."""
        self.flush()
        self._attrib.set_pool_summary({
            "free_blocks": self._kv.free_blocks,
            "used_blocks": self._kv.used_blocks,
            "shared_blocks": self._kv.shared_blocks,
            "freelist_fragmentation": self._kv.freelist_fragmentation(),
            "refcount_distribution": self._kv.refcount_distribution(),
        })


class ServingEngine:
    """Continuous-batching engine over the GPU timing simulator."""

    def __init__(
        self,
        model: ModelConfig,
        system: ServingSystem,
        spec: GPUSpec = A100_80G_SXM4,
        config: EngineConfig | None = None,
    ):
        self.model = model
        self.system = system
        self.spec = spec
        self.config = config or EngineConfig()
        self._tp_stack = None
        if self.config.tensor_parallel > 1:
            from repro.serving.parallel import TPConfig, TPStackModel

            self._tp_stack = TPStackModel(
                model, system.kernel,
                TPConfig(degree=self.config.tensor_parallel),
            )
        self.plan = plan_memory(
            model, system, self.config.hbm_bytes, self.config.tensor_parallel
        )
        if not self.plan.fits:
            raise ValueError(
                f"{model.name} weights ({self.plan.weight_bytes / 1e9:.1f} GB as "
                f"{system.name}) do not fit in {self.plan.hbm_bytes / 1e9:.0f} GB"
            )
        self.kv = PagedKVManager(
            self.plan.kv_pool_bytes,
            self.plan.kv_bytes_per_token,
            self.config.block_tokens,
        )
        self.decode_attention = DECODE_ATTENTION[self.config.decode_attention](spec)
        self.prefill_attention = PREFILL_ATTENTION[self.config.prefill_attention](spec)
        self._stack_latency_cache: dict[int, float] = {}
        self._prefill_attn_cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Step-time model
    # ------------------------------------------------------------------

    def linear_stack_latency(self, m: int) -> float:
        """GEMM time of all linear layers for one forward pass at ``m``
        tokens (cached per m); includes TP collectives when sharded."""
        if self._tp_stack is not None:
            return self._tp_stack.stack_latency(m)
        cached = self._stack_latency_cache.get(m)
        if cached is not None:
            return cached
        per_block = 0.0
        for n, k in self.model.linear_shapes().values():
            per_block += self.system.kernel.latency(GEMMShape(m, n, k)).seconds
        total = per_block * self.model.n_layers
        self._stack_latency_cache[m] = total
        return total

    @property
    def _kv_bytes_per_token_per_gpu(self) -> float:
        """KV bytes streamed per token by one GPU (heads shard under TP)."""
        return self.plan.kv_bytes_per_token / self.config.tensor_parallel

    def decode_attention_time(self, context_tokens: int, batch: int) -> float:
        """Attention cost of one decode step (Figure 2's memory-bound
        activation-activation operator, under the configured kernel) plus
        the per-layer elementwise traffic."""
        attn = self.decode_attention.latency(
            batch=batch,
            context_tokens=context_tokens,
            kv_bytes_per_token=self._kv_bytes_per_token_per_gpu,
            d_model=self.model.d_model,
            n_layers=self.model.n_layers,
            n_kv_heads=self.model.n_kv_heads,
        )
        elementwise = (
            batch * self.model.d_model * self.model.n_layers * 20 * 2
        ) / self.spec.hbm_bandwidth
        return attn + elementwise

    def prefill_attention_time(self, prompt_len: int) -> float:
        """Attention cost of one request's prefill, incl. the KV write
        (cached per prompt length — admission evaluates it per request
        and real traces repeat lengths)."""
        cached = self._prefill_attn_cache.get(prompt_len)
        if cached is not None:
            return cached
        attn = self.prefill_attention.latency(
            prompt_len, self.model.d_model, self.model.n_layers
        )
        kv_write = (
            prompt_len
            * self._kv_bytes_per_token_per_gpu
            / self.spec.hbm_bandwidth
        )
        total = attn + kv_write
        self._prefill_attn_cache[prompt_len] = total
        return total

    def _chunk_attention_time(self, chunk: int, progress: int) -> float:
        """Attention cost of one prefill chunk attending to its history."""
        # chunk queries attend to ~(progress + chunk/2) keys on average.
        keys = progress + chunk / 2.0
        flops = 2.0 * chunk * keys * self.model.d_model * 2.0
        compute = flops * self.model.n_layers / self.spec.tc_tput("fp16")
        history_read = progress * self._kv_bytes_per_token_per_gpu
        kv_write = chunk * self._kv_bytes_per_token_per_gpu
        return compute + (history_read + kv_write) / self.spec.hbm_bandwidth

    def prefill_time(self, prompt_len: int) -> float:
        """Full prefill cost of one request."""
        return (
            self.linear_stack_latency(prompt_len)
            + self.prefill_attention_time(prompt_len)
            + self.config.step_overhead
        )

    def decode_step_time(self, batch: int, context_tokens: int) -> float:
        """One engine iteration decoding ``batch`` tokens."""
        return (
            self.linear_stack_latency(batch)
            + self.decode_attention_time(context_tokens, batch)
            + self.config.step_overhead
        )

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------

    def run(
        self,
        requests: list[Request],
        tracer: "EngineTracer | None" = None,
        faults: FaultPlan | None = None,
        profiler: "StepPhaseProfiler | None" = None,
    ) -> ThroughputReport:
        """Serve a request list to completion and report throughput.

        Pass an :class:`repro.serving.trace.EngineTracer` as ``tracer`` to
        record a per-iteration timeline, and a
        :class:`repro.serving.faults.FaultPlan` as ``faults`` to run under
        injected transient failures (chaos mode).  A
        :class:`repro.serving.stepprof.StepPhaseProfiler` as ``profiler``
        attributes the loop's *wall-clock* cost to scheduling phases (the
        high-concurrency benchmark tier reads this; simulated results are
        unaffected).

        The running batch lives in numpy arrays (:class:`BatchState`), so
        each step's bookkeeping is a few array operations; faults, aborts,
        finishes and expiries are row operations, and only a step whose
        KV growth needs preemption walks the decoding rows one by one.

        Requests with nonzero ``arrival_time`` form a trace: the clock fast-
        forwards over idle gaps and admission only considers arrived
        requests.  Two memory disciplines are supported:

        * ``reserve_full_sequence=True`` (default): admission reserves each
          request's full sequence, so decoding never runs out of KV blocks
          — the deterministic max-batch setting of the paper's evaluation;
        * ``reserve_full_sequence=False``: admission is optimistic (prompt
          only) and the engine preempts the most recently admitted sequence
          (recompute-style, as in vLLM) when the pool runs dry.

        The run never raises on per-request trouble: requests that can
        never fit the KV pool are ``REJECTED``, requests whose SLOs expire
        are ``TIMED_OUT`` (shed from the queue or cut mid-flight), and
        transient faults re-queue the victim with exponential backoff until
        ``EngineConfig.max_retries`` is exhausted (``FAILED``).  Every
        request ends in exactly one terminal phase.
        """
        stale = [r.request_id for r in requests if r.phase is not Phase.WAITING]
        if stale:
            raise ValueError(
                f"requests {stale} were already served; engine runs require "
                "fresh Request objects"
            )
        fault_active = faults is not None and not faults.empty
        abort_points: dict[int, int] = {}
        if fault_active and faults.request_abort_rate > 0.0:
            for r in requests:
                point = faults.request_abort_point(r.request_id, r.max_new_tokens)
                if point is not None:
                    abort_points[r.request_id] = point
        has_slos = any(
            r.ttft_slo is not None or r.e2e_slo is not None for r in requests
        )
        waiting = deque(
            sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        )
        expiry = DeadlineHeap()
        if has_slos:
            for r in waiting:
                expiry.push(r)
        retry_queue = RetryHeap()
        state = BatchState()
        prof = profiler
        committed_tokens = 0
        capacity = int(self.kv.token_capacity * self.config.kv_capacity_slack)
        clock = 0.0
        prefill_s = 0.0
        decode_s = 0.0
        gemm_s = 0.0
        attn_s = 0.0
        overhead_s = 0.0
        peak_batch = 0
        completed = 0
        output_tokens = 0
        preemptions = 0
        rejected = 0
        failed = 0
        timed_out = 0
        retries_total = 0
        deadline_misses = 0
        faults_injected = 0
        degraded_steps = 0
        chunking = self.config.prefill_chunk_tokens
        eff_max_batch = self.config.max_batch
        eff_chunk = chunking
        pressure_hot = 0
        pressure_cool = 0
        compute_steps = 0
        last_decode_clock: float | None = None
        max_decode_gap = 0.0
        tel = _EngineTelemetry(self.kv) if obs.enabled() else None
        live = live_obs.active()
        rec = _LiveHooks(live, self.kv) if live is not None else None
        run_span = obs.span(
            "serving.engine_run", cat="serving", model=self.model.name,
            system=self.system.name, requests=len(requests),
        )

        def release_kv(req: Request) -> None:
            """Return an admitted request's KV blocks and commitment."""
            nonlocal committed_tokens
            self.kv.free(req.request_id)
            committed_tokens -= req.total_len

        def reject(req: Request, reason: str) -> None:
            nonlocal rejected
            req.reject(reason, clock)
            rejected += 1
            if tel is not None:
                tel.on_reject(req, clock)
            if rec is not None:
                rec.on_reject(req, clock)
            if tracer is not None:
                tracer.record_event(
                    "rejected", ts=clock, request_id=req.request_id,
                    reason=reason,
                )

        def expire(req: Request, reason: str) -> None:
            """Terminally time a request out (deadline miss)."""
            nonlocal timed_out, deadline_misses
            req.time_out(reason, clock)
            timed_out += 1
            deadline_misses += 1
            if tel is not None:
                tel.on_timeout(req, clock)
                tel.deadline_misses.inc()
            if rec is not None:
                rec.on_timeout(req, clock)
            if tracer is not None:
                tracer.record_event(
                    "timed_out", ts=clock, request_id=req.request_id,
                    reason=reason,
                )

        def fail(req: Request, reason: str) -> None:
            """Terminally fail a request that holds no KV allocation."""
            nonlocal failed
            req.fail(reason, clock)
            failed += 1
            if tel is not None:
                tel.on_fail(req, clock)
            if rec is not None:
                rec.on_fail(req, clock)
            if tracer is not None:
                tracer.record_event(
                    "failed", ts=clock, request_id=req.request_id,
                    reason=reason,
                )

        def record_fault(kind: FaultKind, req: Request | None = None) -> None:
            """Count one injected fault: a step fault, or (``req`` given) a
            request abort."""
            nonlocal faults_injected
            faults_injected += 1
            if tel is not None:
                tel.on_fault(kind.value, clock)
            attrs = {} if req is None else {"request_id": req.request_id}
            if tracer is not None:
                tracer.record_event("fault", ts=clock, kind=kind.value, **attrs)
            if rec is not None and req is not None:
                rec.on_request_fault(req, kind.value, clock)

        def retry_or_fail(req: Request, reason: str) -> None:
            """Reset a faulted in-flight request: back off and re-queue it,
            or fail it once the retry budget is spent.  The request must
            currently hold a KV allocation (and be synced from its row)."""
            nonlocal output_tokens, retries_total
            output_tokens -= req.reset_for_retry()
            release_kv(req)
            if req.retries > self.config.max_retries:
                fail(req, reason)
                return
            retries_total += 1
            req.not_before = clock + self.config.retry_backoff * (
                2 ** (req.retries - 1)
            )
            retry_queue.push(req)
            if tel is not None:
                tel.on_retry(req, clock)
            if rec is not None:
                rec.on_retry(req, clock, reason)
            if tracer is not None:
                tracer.record_event(
                    "retry", ts=clock, request_id=req.request_id,
                    reason=reason, attempt=req.retries,
                )

        def infeasible_reason(req: Request) -> str | None:
            """Why this request can never be served, or None if it can."""
            if self.config.reserve_full_sequence:
                if req.total_len > capacity:
                    return (
                        f"total_len {req.total_len} exceeds KV commit "
                        f"capacity {capacity}"
                    )
                return None
            headroom = self.kv.block_tokens
            if self.kv.blocks_needed(req.prompt_len + headroom) > self.kv.num_blocks:
                return (
                    f"prompt_len {req.prompt_len} exceeds the KV pool "
                    f"({self.kv.token_capacity} tokens)"
                )
            if self.kv.blocks_needed(req.total_len) > self.kv.num_blocks:
                return (
                    f"total_len {req.total_len} exceeds the KV pool "
                    f"({self.kv.token_capacity} tokens)"
                )
            return None

        def clean_waiting() -> None:
            """Drop terminal (heap-swept) entries from the deque head."""
            while waiting and waiting[0].is_terminal:
                waiting.popleft()

        def start_request(req: Request) -> None:
            """Post-admission bookkeeping shared by the arrival and retry
            paths: whole-prompt prefill (when not chunking) and batch entry."""
            nonlocal committed_tokens, clock, prefill_s, gemm_s, attn_s
            nonlocal overhead_s
            committed_tokens += req.total_len
            req.phase = Phase.PREFILL
            if tel is not None:
                tel.on_admit(req, clock)
            if rec is not None:
                rec.on_admit(req, clock)
            if chunking is None:
                # Whole-prompt prefill, serialized before decoding.
                with obs.span(
                    "engine.step", cat="serving", kind="prefill",
                    batch=1, prefill_tokens=req.prompt_len,
                ):
                    dt = self.prefill_time(req.prompt_len)
                if tracer is not None:
                    tracer.record(
                        start=clock, duration=dt, kind="prefill",
                        batch=1, decode_tokens=0,
                        prefill_tokens=req.prompt_len,
                        context_tokens=req.prompt_len,
                    )
                clock += dt
                prefill_s += dt
                pf_gemm = self.linear_stack_latency(req.prompt_len)
                pf_attn = self.prefill_attention_time(req.prompt_len)
                gemm_s += pf_gemm
                attn_s += pf_attn
                overhead_s += self.config.step_overhead
                if rec is not None:
                    # Charge before the phase flip below is observable:
                    # running decoders stalled for this whole prefill.
                    rec.on_prefill_cost(
                        req, dt, pf_gemm, pf_attn,
                        self.config.step_overhead,
                    )
                req.prefill_progress = req.prompt_len
                req.phase = Phase.DECODE
                if tel is not None:
                    tel.on_step("prefill", dt, 1)
                if rec is not None:
                    rec.heartbeat("prefill", dt, 1, 0, clock, pf_gemm, pf_attn)
            # Request aborts only hit a request's first attempt.
            abort_at = abort_points.get(req.request_id, -1) if req.retries == 0 else -1
            state.add(req, self.kv.sequence_row(req.request_id), abort_at)

        def settle(i: int) -> None:
            """Lifecycle of row ``i`` right after it decoded a token: the
            first-token stamp, then its scheduled abort (a fault beats the
            finish it may coincide with) or its finish, either of which
            drops the row from this step's ``keep``."""
            nonlocal completed, deadline_misses
            req = state.sync(i)
            gen = req.generated
            if gen == 1:
                req.first_token_time = clock
                if tel is not None:
                    tel.on_first_token(req, clock)
                if rec is not None:
                    rec.on_first_token(req, clock)
            if gen == state.abort_at[i]:
                # Per-request transient fault: the first attempt aborts
                # here; retries run clean.
                record_fault(FaultKind.REQUEST_ABORT, req)
                retry_or_fail(req, "request aborted")
                keep[i] = False
                return
            if gen < req.max_new_tokens:
                return
            keep[i] = False
            req.phase = Phase.FINISHED
            req.finish_time = clock
            release_kv(req)
            completed += 1
            if has_slos and not req.slo_met:
                deadline_misses += 1
                if tel is not None:
                    tel.deadline_misses.inc()
            if tel is not None:
                tel.on_finish(req, clock)
            if rec is not None:
                rec.on_finish(req, clock)

        with run_span:
            for _ in range(self.config.max_steps):
                if prof is not None:
                    prof.begin()
                if not state:
                    clean_waiting()
                    next_arrival = (
                        waiting[0].arrival_time if waiting else float("inf")
                    )
                    next_retry = retry_queue.next_ready_time()
                    wake = min(next_arrival, next_retry)
                    if wake != float("inf") and wake > clock:
                        clock = wake  # idle until next arrival / backoff expiry

                # Shed every queued request whose deadline has already
                # passed, wherever it sits in the FIFO (the heap sweep; the
                # deque drops the now-terminal entries lazily).
                if has_slos:
                    for req in expiry.expired(clock):
                        expire(req, "expired while waiting")

                # Re-admission of backed-off retries (they were already
                # accepted once, so they queue ahead of new arrivals).
                while (
                    retry_queue
                    and len(state) < eff_max_batch
                    and retry_queue.next_ready_time() <= clock
                ):
                    req = retry_queue.peek()
                    if req.is_terminal:
                        # Already shed by the deadline sweep while backing
                        # off (its heap entry outlives the fault/retry).
                        retry_queue.pop()
                        continue
                    if has_slos and clock > min(
                        req.e2e_deadline, req.ttft_deadline
                    ):
                        # The deadline lapsed during backoff; shed it.
                        retry_queue.pop()
                        expire(req, "expired during retry backoff")
                        continue
                    if not self._admit(req, committed_tokens, capacity):
                        break
                    retry_queue.pop()
                    start_request(req)

                # Admission.
                while True:
                    clean_waiting()
                    if not (
                        waiting
                        and len(state) < eff_max_batch
                        and waiting[0].arrival_time <= clock
                    ):
                        break
                    req = waiting[0]
                    reason = infeasible_reason(req)
                    if reason is not None:
                        # Admission control: this request can never fit;
                        # refuse it and keep serving the rest.
                        waiting.popleft()
                        reject(req, reason)
                        continue
                    if has_slos and clock > min(req.e2e_deadline, req.ttft_deadline):
                        # Load shedding: the deadline expired while queued.
                        waiting.popleft()
                        expire(req, "expired while waiting")
                        continue
                    if not self._admit(req, committed_tokens, capacity):
                        break
                    waiting.popleft()
                    start_request(req)

                if not state:
                    clean_waiting()
                    if not waiting and not retry_queue:
                        break
                    pending_arrival = (
                        waiting[0].arrival_time if waiting else float("inf")
                    )
                    pending_retry = retry_queue.next_ready_time()
                    if min(pending_arrival, pending_retry) > clock:
                        continue  # fast-forward next iteration
                    # An arrived request could not enter an empty pool even
                    # though the feasibility check passed; refuse it rather
                    # than stalling the scheduler forever.
                    if waiting and pending_arrival <= clock:
                        req = waiting.popleft()
                        reject(req, "admission failed with an empty KV pool")
                    else:
                        req = retry_queue.pop()
                        fail(req, "re-admission failed with an empty KV pool")
                    continue
                if prof is not None:
                    prof.lap("admit")

                # Partition and aggregate over the batch arrays.
                n_run = len(state)
                peak_batch = max(peak_batch, n_run)
                dec_idx = np.flatnonzero(state.decoding)
                n_dec = int(dec_idx.size)
                pf_i = -1
                prefill_req = None
                chunk = 0
                if n_dec < n_run:
                    pf_i = int(np.flatnonzero(~state.decoding)[0])
                    prefill_req = state.reqs[pf_i]
                    chunk = min(
                        eff_chunk, prefill_req.prompt_len - prefill_req.prefill_progress
                    )
                dec_context = int(state.ctx[dec_idx].sum()) if n_dec else 0

                # One continuous-batching iteration: decode tokens plus (when
                # chunking) one prompt chunk share the same GEMM pass.
                if n_dec and chunk:
                    kind = "mixed"
                elif n_dec:
                    kind = "decode"
                else:
                    kind = "prefill"
                fault = None
                if fault_active:
                    fault = faults.step_fault(compute_steps)
                compute_steps += 1
                if prof is not None:
                    prof.step()
                    prof.lap("schedule")
                m = n_dec + chunk
                with obs.span("engine.step", cat="serving", kind=kind) as step_span:
                    gemm = self.linear_stack_latency(m)
                    attn = 0.0
                    if n_dec:
                        attn += self.decode_attention_time(dec_context, n_dec)
                    attn_dec = attn
                    if chunk:
                        attn += self._chunk_attention_time(
                            chunk, prefill_req.prefill_progress
                        )
                    dt = gemm + attn + self.config.step_overhead
                    if fault is not None and fault.kind is FaultKind.STRAGGLER:
                        # The whole iteration straggles; the extra time is
                        # framework-side stall, not GEMM/attention work.
                        stall = dt * (fault.slowdown - 1.0)
                        dt += stall
                        overhead_s += stall
                    step_span.set(batch=n_run, sim_seconds=dt)
                if prof is not None:
                    prof.lap("model")
                if tracer is not None:
                    tracer.record(
                        start=clock, duration=dt, kind=kind,
                        batch=n_run, decode_tokens=n_dec,
                        prefill_tokens=chunk,
                        context_tokens=int(state.ctx.sum()),
                    )
                clock += dt
                gemm_s += gemm
                attn_s += attn
                overhead_s += self.config.step_overhead
                if n_dec:
                    decode_s += dt
                    if last_decode_clock is not None:
                        max_decode_gap = max(max_decode_gap, clock - last_decode_clock)
                    last_decode_clock = clock
                else:
                    prefill_s += dt

                kv_dq = 0.0
                if rec is not None:
                    # Cost ledger: charge the step before any request state
                    # advances, so every transition below settles at this
                    # clock.  The KV-dequant carve-out is the history-
                    # streaming floor of decode attention (kernels/attention
                    # kv_stream_seconds), capped by the attention time the
                    # kernel actually took.
                    if n_dec:
                        kv_dq = min(attn_dec, kv_stream_seconds(
                            dec_context,
                            self._kv_bytes_per_token_per_gpu,
                            self.spec.hbm_bandwidth,
                        ))
                    rec.on_step_cost(
                        dt, gemm, attn - kv_dq, kv_dq, dt - gemm - attn,
                        prefill_req.request_id
                        if (prefill_req is not None and chunk) else -1,
                    )

                if fault is not None:
                    record_fault(fault.kind)

                # Rows still in the batch once this step settles; the
                # batch is compacted to them at the end of the step.
                keep = np.ones(n_run, dtype=bool)
                step_preemptions = 0
                tokens_this_step = 0
                # A kernel fault discards the step's results: the time is
                # spent but no tokens land and no prefill progress is made;
                # the engine retries the same work next iteration.
                if fault is None or fault.kind is not FaultKind.KERNEL_FAULT:
                    if chunk:
                        prefill_req.prefill_progress += chunk
                        state.set_prefill_progress(
                            pf_i, prefill_req.prefill_progress
                        )
                        if prefill_req.prefill_progress >= prefill_req.prompt_len:
                            # First decode happens next iteration.
                            prefill_req.phase = Phase.DECODE
                            state.mark_decode(pf_i)
                            if rec is not None:
                                rec.on_prefill_done(prefill_req)
                    if n_dec and self.kv.append_token_many(state.kv_row[dec_idx]):
                        state.advance(dec_idx)
                        tokens_this_step = n_dec
                        gen = state.gen[dec_idx]
                        events = dec_idx[
                            (gen == 1)
                            | (gen >= state.max_new[dec_idx])
                            | (gen == state.abort_at[dec_idx])
                        ]
                        for i in events.tolist():
                            settle(i)
                    elif n_dec:
                        # The pool cannot grow every sequence at once: grow
                        # them one by one in admission order, preempting the
                        # most recently admitted decoder whenever it runs dry.
                        for i in dec_idx.tolist():
                            req = state.reqs[i]
                            if req.phase is not Phase.DECODE:
                                continue  # preempted earlier in this step
                            appended = True
                            while not self.kv.append_token(req.request_id):
                                v = self._pick_victim(state.reqs, i)
                                if v is None:
                                    # Nothing decodable to evict: retry this
                                    # request after other work drains.
                                    retry_or_fail(state.sync(i), "KV pool exhausted")
                                    keep[i] = False
                                    appended = False
                                    break
                                victim = state.sync(v)
                                output_tokens -= victim.preempt()
                                preemptions += 1
                                step_preemptions += 1
                                release_kv(victim)
                                keep[v] = False
                                waiting.appendleft(victim)
                                if has_slos:
                                    expiry.push(victim)
                                if tel is not None:
                                    tel.on_preempt(victim, clock)
                                if rec is not None:
                                    rec.on_preempt(victim, clock)
                            if appended:
                                state.advance(i)
                                tokens_this_step += 1
                                settle(i)
                output_tokens += tokens_this_step
                if tel is not None and tokens_this_step:
                    tel.output_tokens.inc(tokens_this_step)
                if prof is not None:
                    prof.lap("decode")
                if tel is not None:
                    tel.on_step(kind, dt, n_run)
                if rec is not None:
                    rec.heartbeat(
                        kind, dt, n_run, tokens_this_step, clock,
                        gemm, attn, kv_dq,
                    )
                if prof is not None:
                    prof.lap("heartbeat")

                if fault is not None and fault.kind is FaultKind.KV_LOSS:
                    # One running sequence's cache blocks are lost; the
                    # victim restarts from scratch (recompute) after backoff.
                    alive = np.flatnonzero(keep)
                    if alive.size:
                        i = int(alive[int(fault.victim_draw * alive.size) % alive.size])
                        victim = state.sync(i)
                        if rec is not None:
                            rec.on_request_fault(
                                victim, FaultKind.KV_LOSS.value, clock
                            )
                        retry_or_fail(victim, "KV blocks lost")
                        keep[i] = False

                if has_slos:
                    e2e_hit = clock > state.e2e_dl
                    hits = np.flatnonzero(keep & (
                        e2e_hit | ((state.gen == 0) & (clock > state.ttft_dl))
                    ))
                    for i in hits.tolist():
                        req = state.sync(i)
                        release_kv(req)
                        if e2e_hit[i]:
                            expire(req, "e2e deadline expired mid-flight")
                        else:
                            expire(req, "TTFT deadline expired")
                        keep[i] = False

                if self.config.degrade_under_pressure:
                    used = self.kv.num_blocks - self.kv.free_blocks
                    pressure = used / self.kv.num_blocks if self.kv.num_blocks else 0.0
                    if pressure >= self.config.degrade_pressure or step_preemptions:
                        pressure_hot += 1
                        pressure_cool = 0
                    else:
                        pressure_cool += 1
                        pressure_hot = 0
                    if pressure_hot >= self.config.degrade_window:
                        pressure_hot = 0
                        eff_max_batch = max(1, eff_max_batch // 2)
                        if chunking is not None:
                            eff_chunk = max(
                                self.config.block_tokens, eff_chunk // 2
                            )
                    elif pressure_cool >= self.config.degrade_window:
                        pressure_cool = 0
                        if eff_max_batch < self.config.max_batch:
                            eff_max_batch = min(
                                self.config.max_batch, eff_max_batch * 2
                            )
                        if chunking is not None and eff_chunk < chunking:
                            eff_chunk = min(chunking, eff_chunk * 2)
                    if eff_max_batch < self.config.max_batch or (
                        chunking is not None and eff_chunk < chunking
                    ):
                        degraded_steps += 1
                        if tel is not None:
                            tel.degraded_steps.inc()

                if not keep.all():
                    state.rebuild(keep)
                if prof is not None:
                    prof.lap("schedule")
            else:
                raise RuntimeError("max_steps exceeded; raise EngineConfig.max_steps")
            if rec is not None:
                rec.finalize()

        good_output_tokens = sum(
            r.generated
            for r in requests
            if r.phase is Phase.FINISHED and r.slo_met
        )
        return ThroughputReport(
            system=self.system.name,
            model=self.model.name,
            requests_completed=completed,
            output_tokens=output_tokens,
            sim_seconds=clock,
            prefill_seconds=prefill_s,
            decode_seconds=decode_s,
            peak_batch=peak_batch,
            kv_token_capacity=self.kv.token_capacity,
            gemm_seconds=gemm_s,
            attention_seconds=attn_s,
            overhead_seconds=overhead_s,
            preemptions=preemptions,
            max_decode_gap=max_decode_gap,
            requests_failed=failed,
            requests_rejected=rejected,
            requests_timed_out=timed_out,
            retries=retries_total,
            deadline_misses=deadline_misses,
            faults_injected=faults_injected,
            degraded_steps=degraded_steps,
            good_output_tokens=good_output_tokens,
            engine_steps=compute_steps,
        )

    def _admit(self, req: Request, committed_tokens: int, capacity: int) -> bool:
        """Try to allocate a request's KV under the configured discipline."""
        if self.config.reserve_full_sequence:
            if committed_tokens + req.total_len > capacity:
                return False
            return self.kv.allocate(req.request_id, req.prompt_len)
        # Optimistic: prompt plus one growth block of headroom.
        headroom = self.kv.block_tokens
        if not self.kv.can_allocate(req.prompt_len + headroom):
            return False
        return self.kv.allocate(req.request_id, req.prompt_len)

    @staticmethod
    def _pick_victim(running: list[Request], current: int) -> int | None:
        """Row of the most recently admitted decodable request other than
        row ``current``."""
        for j in range(len(running) - 1, -1, -1):
            if j != current and running[j].phase is Phase.DECODE:
                return j
        return None
