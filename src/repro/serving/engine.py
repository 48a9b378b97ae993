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

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat
from operator import sub
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
from repro.model.config import ModelConfig
from repro.serving.batchstate import BatchState, DeadlineHeap, RetryHeap
from repro.serving.faults import FaultKind, FaultPlan
from repro.serving.memory_planner import DEFAULT_HBM_BYTES, plan_memory
from repro.serving.paged_kv import PagedKVManager
from repro.serving.parallel import TPConfig, TPStackModel
from repro.serving.request import TERMINAL_PHASES, Phase, Request
from repro.serving.stepprof import _NullProfiler
from repro.serving.systems import ServingSystem
from repro.serving.trace import EngineEvents, EngineTracer, Step

if TYPE_CHECKING:
    from repro.serving.stepprof import StepPhaseProfiler

__all__ = ["EngineConfig", "ThroughputReport", "ServingEngine"]

#: Per-step framework overhead: scheduler, sampling, python/driver time.
DEFAULT_STEP_OVERHEAD = 100e-6
#: Step faults drawn per FaultPlan.step_faults call.
_FAULT_WINDOW = 256


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    Attributes:
        max_batch: concurrent-sequence cap.
        block_tokens: paged-KV block granularity.
        hbm_bytes: usable device memory.
        step_overhead: per-iteration framework overhead.
        max_steps: safety cap on simulated steps: every decode or prefill
            step counts one, as does every loop pass that steps nothing
            (an idle fast-forward, a refused admission).
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
        for knob, kernels in (("decode_attention", DECODE_ATTENTION),
                              ("prefill_attention", PREFILL_ATTENTION)):
            if getattr(self, knob) not in kernels:
                raise ValueError(
                    f"unknown {knob} {getattr(self, knob)!r}; "
                    f"known: {sorted(kernels)}"
                )
        chunk = self.prefill_chunk_tokens
        for bad, message in (
            (chunk is not None and chunk <= 0,
             "prefill_chunk_tokens must be positive or None"),
            (self.tensor_parallel < 1, "tensor_parallel must be >= 1"),
            (not 0.0 < self.kv_capacity_slack <= 1.0,
             "kv_capacity_slack must be in (0, 1]"),
            (self.max_retries < 0, "max_retries must be >= 0"),
            (self.retry_backoff < 0, "retry_backoff must be >= 0"),
            (not 0.0 < self.degrade_pressure <= 1.0,
             "degrade_pressure must be in (0, 1]"),
            (self.degrade_window < 1, "degrade_window must be >= 1"),
        ):
            if bad:
                raise ValueError(message)


@dataclass
class ThroughputReport:
    """Outcome of a simulated serving run.  Its request counters (outcomes,
    tokens, preemptions, retries, misses) are folded from the requests."""

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
    #: Re-queues after a transient fault (not the fault that fails a request).
    retries: int = 0
    deadline_misses: int = 0
    faults_injected: int = 0
    degraded_steps: int = 0
    #: Output tokens of requests that finished within every configured SLO.
    good_output_tokens: int = 0
    #: Simulated batch steps (not admissions; one loop iteration may
    #: advance several).
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


class _EngineTelemetry(EngineEvents):
    """Event sink for per-run ``repro.obs`` recording: request lifecycle
    events on the simulated timeline, TTFT/TPOT histograms, step counters,
    KV gauges.

    Instantiated only while telemetry is enabled, so the disabled engine
    pays a single ``obs.enabled()`` check per run.
    """

    def __init__(self, kv: PagedKVManager):
        self._kv = kv
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

    def admit(self, req: Request, clock: float) -> None:
        self.admitted.inc()
        self.request_event("queued", req, req.arrival_time)
        self.request_event("prefill", req, clock)

    def first_token(self, req: Request, clock: float) -> None:
        self.ttft.observe(clock - req.arrival_time)
        self.request_event("decode", req, clock)

    def finish(self, req: Request, clock: float) -> None:
        self.finished.inc()
        if not req.slo_met:  # always met without SLOs
            self.deadline_misses.inc()
        self.tpot.observe(
            (req.finish_time - req.first_token_time) / max(req.generated - 1, 1)
        )
        self.e2e.observe(clock - req.arrival_time)
        self.request_event("finished", req, clock)

    def preempt(self, req: Request, clock: float, lost: int) -> None:
        self.preempted.inc()
        self.request_event("preempted", req, clock)

    def reject(self, req: Request, clock: float) -> None:
        self.rejected.inc()
        self.request_event("rejected", req, clock, reason=req.failure_reason)

    def retry(self, req: Request, clock: float, reason: str) -> None:
        self.retries.inc()
        self.request_event("retry", req, clock, attempt=req.retries)

    def fail(self, req: Request, clock: float) -> None:
        self.failed.inc()
        self.request_event("failed", req, clock, reason=req.failure_reason)

    def timeout(self, req: Request, clock: float) -> None:
        self.timed_out.inc()
        self.deadline_misses.inc()
        self.request_event("timed_out", req, clock, reason=req.failure_reason)

    def fault(self, kind: str, clock: float, req: Request | None = None) -> None:
        self.faults.labels(kind=kind).inc()
        obs.event(
            "serving.fault", ts=clock, cat="fault", domain="sim", kind=kind
        )

    def step_end(self, step: Step, tokens: int) -> None:
        if tokens:
            self.output_tokens.inc(tokens)
        self.steps.labels(kind=step.kind).inc()
        self.step_seconds.observe(step.dt)
        self.batch_size.observe(step.batch)
        self.kv_utilization.set(self._kv.utilization())
        self.kv_fragmentation.set(self._kv.fragmentation())
        self.kv_free_blocks.set(self._kv.free_blocks)

    def degraded(self, clock: float) -> None:
        self.degraded_steps.inc()


#: The window metrics of a heartbeat row, in column order after its clock.
_HEARTBEAT_METRICS = (
    "serving.step_seconds", "serving.batch_size", "serving.output_tokens_total",
    "serving.kv_utilization", "serving.kv_free_blocks", "serving.kv_shared_blocks",
    "serving.kv_freelist_frag", "serving.step_gemm_seconds",
    "serving.step_attention_seconds", "serving.step_kv_dequant_seconds",
)


class _LiveHooks(EngineEvents):
    """Event sink feeding the attached live-observability bundle
    (:mod:`repro.obs.live`): a per-step heartbeat with sliding-window
    samples, flight-recorder lifecycle events, streaming SLO outcomes, and
    the cost ledger (:class:`repro.obs.attrib.CostLedger`).

    Instantiated only when a bundle is attached, so the detached engine
    pays one ``live_obs.active()`` read per run (the same zero-cost
    discipline as :class:`_EngineTelemetry`).  Every timestamp handed over
    is the engine's *simulated* clock — the live layer never sees wall
    time, keeping chaos runs bit-reproducible.

    Heartbeats (:meth:`step_end`) are buffered in a small ring and handed
    to the live layer in batches (:meth:`LiveObs.heartbeat_batch`),
    amortizing the per-step lock/sample cost at high concurrency.  The
    buffer flushes before every lifecycle event so sample/record ordering
    inside the live layer is identical to unbuffered per-step feeding.
    The ledger is charged at :meth:`step_cost`, before request state
    advances, so every transition settles at the current clock and the
    per-request components sum to e2e.
    """

    #: Heartbeats buffered before a bulk hand-off to the live layer.
    FLUSH_EVERY = 64

    def __init__(self, live: live_obs.LiveObs, kv: PagedKVManager):
        self._live = live
        self._kv = kv
        self._attrib = live.attrib
        self._hb = np.zeros((self.FLUSH_EVERY, 1 + len(_HEARTBEAT_METRICS)))
        self._hb_n = 0

    def flush(self) -> None:
        """Hand buffered heartbeats to the live layer, oldest first."""
        n = self._hb_n
        if n == 0:
            return
        self._hb_n = 0
        rows = self._hb[:n]
        self._live.heartbeat_batch(
            rows[:, 0], dict(zip(_HEARTBEAT_METRICS, rows[:, 1:].T))
        )

    def _queued(self, req: Request) -> None:
        """Open the request's flight record and ledger row (idempotent)."""
        self._live.flights.queued(
            req.request_id,
            prompt_len=req.prompt_len,
            max_new_tokens=req.max_new_tokens,
            arrival_time=req.arrival_time,
        )
        self._attrib.queued(req.request_id, req.arrival_time)

    @staticmethod
    def _has_slo(req: Request) -> bool:
        return req.ttft_slo is not None or req.e2e_slo is not None

    def admit(self, req: Request, clock: float) -> None:
        self.flush()
        self._queued(req)
        blocks = self._kv.blocks_needed(req.prompt_len)
        self._live.flights.admitted(req.request_id, clock, kv_blocks=blocks)
        self._attrib.admitted(
            req.request_id, clock, kv_row=self._kv.sequence_row(req.request_id),
            kv_blocks=blocks,
            shared_blocks=self._kv.sequence_shared_blocks(req.request_id),
        )

    def first_token(self, req: Request, clock: float) -> None:
        self.flush()
        self._live.flights.first_token(req.request_id, clock)
        self._attrib.first_token(req.request_id)
        self._live.sample(
            "serving.ttft_seconds", clock - req.arrival_time, clock
        )

    def finish(self, req: Request, clock: float) -> None:
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

    def preempt(self, req: Request, clock: float, lost: int) -> None:
        self.flush()
        self._live.flights.preempted(req.request_id, clock, lost_tokens=lost)
        self._attrib.requeued(req.request_id, clock)

    def _close_unserved(
        self, req: Request, clock: float, outcome: str, **details
    ) -> None:
        """Close the flight record and ledger row of a request that ends
        without finishing (rejected, failed, timed out)."""
        self.flush()
        self._queued(req)
        self._live.flights.close(
            req.request_id, clock, outcome=outcome,
            reason=req.failure_reason, **details,
        )
        self._attrib.close(req.request_id, clock, outcome)

    def reject(self, req: Request, clock: float) -> None:
        self._close_unserved(req, clock, "rejected")

    def retry(self, req: Request, clock: float, reason: str) -> None:
        self.flush()
        self._live.flights.retry(
            req.request_id, clock, reason=reason, attempt=req.retries
        )
        self._attrib.requeued(req.request_id, clock)

    def fail(self, req: Request, clock: float) -> None:
        self._close_unserved(req, clock, "failed", generated=req.generated)
        if self._has_slo(req):
            self._live.slo.record(clock, met=False, request_id=req.request_id)

    def timeout(self, req: Request, clock: float) -> None:
        self._close_unserved(
            req, clock, "timed_out", generated=req.generated, slo_met=False
        )
        # Timeouts only happen to requests with deadlines configured.
        self._live.slo.record(clock, met=False, request_id=req.request_id)

    def fault_hit(self, kind: str, req: Request, clock: float) -> None:
        self.flush()
        self._live.flights.fault(req.request_id, clock, kind=kind)

    def prefill_done(self, req: Request, clock: float) -> None:
        self._attrib.prefill_done(req.request_id)  # a decoder from now on

    def step_cost(self, step: Step) -> None:
        """Charge the step to the ledger.  A serialized prefill stalls
        every other admitted request for its duration (the decode gap)."""
        if step.serialized:
            self._attrib.prefill_cost(
                step.prefill_id, step.dt, step.gemm, step.attention,
                step.overhead, blocks_of_rows=self._kv.blocks_of_rows,
            )
        else:
            self._attrib.step_cost(
                step.dt, step.gemm, step.attention - step.kv_dequant,
                step.kv_dequant, step.overhead, prefill_id=step.prefill_id,
                blocks_of_rows=self._kv.blocks_of_rows,
            )

    def step_end(self, step: Step, tokens: int) -> None:
        """Buffer one step's worth of sliding-window samples (KV gauges
        are snapshotted now, at the step's own clock)."""
        kv = self._kv
        self._hb[self._hb_n] = (
            step.end, step.dt, step.batch, tokens, kv.utilization(),
            kv.free_blocks, kv.shared_blocks, kv.freelist_fragmentation(),
            step.gemm, step.attention, step.kv_dequant,
        )
        self._hb_n += 1
        if self._hb_n == self.FLUSH_EVERY:
            self.flush()

    def end_run(self, report: ThroughputReport) -> None:
        """Drain the heartbeat tail and deposit the KV pool's economics
        summary (computed once — not per step) in the ledger."""
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
        self._stack = TPStackModel(
            model, system.kernel, TPConfig(degree=self.config.tensor_parallel)
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
        self._prefill_attn_cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Step-time model
    # ------------------------------------------------------------------

    def linear_stack_latency(self, m: int) -> float:
        """GEMM time of all linear layers for one forward pass at ``m``
        tokens (cached per m); includes TP collectives when sharded."""
        return self._stack.stack_latency(m)

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
        tracer: EngineTracer | None = None,
        faults: FaultPlan | None = None,
        profiler: "StepPhaseProfiler | None" = None,
    ) -> ThroughputReport:
        """Serve a request list to completion and report throughput.

        The loop reports every request transition and every step as an
        engine event (:class:`repro.serving.trace.EngineEvents`) to its
        sinks: obs telemetry while ``repro.obs`` is enabled, the attached
        live-observability bundle, and the
        :class:`repro.serving.trace.EngineTracer` passed as ``tracer``
        (a per-iteration timeline).  Pass a
        :class:`repro.serving.faults.FaultPlan` as ``faults`` to run under
        injected transient failures (chaos mode).  A
        :class:`repro.serving.stepprof.StepPhaseProfiler` as ``profiler``
        attributes the loop's *wall-clock* cost to scheduling phases (the
        high-concurrency benchmark tier reads this; simulated results are
        unaffected).

        The running batch lives in numpy arrays (:class:`BatchState`), so
        each iteration's bookkeeping is a few array operations; faults,
        aborts, finishes and expiries are row operations, and only a step
        whose KV growth needs preemption walks the decoding rows one by one.
        One iteration advances a pure-decode batch ``k`` steps, to its next
        event: a first token, finish or abort, the step before a second KV
        block crossing, the step whose clock reaches the next arrival or
        retry wake-up, or the end of the ``max_steps`` budget.  Every float
        is the one a step-at-a-time loop computes.  Faults, SLOs,
        degradation, a prefill chunk in flight and any event sink hold
        ``k`` at 1.

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
        return _Run(self, requests, tracer, faults, profiler).serve()


class _Run:
    """One :meth:`ServingEngine.run`: the queues, the running batch, the
    clock and the counters no request carries, with the transitions as
    methods.  :meth:`report` folds the request counters from the requests."""

    def __init__(
        self,
        engine: ServingEngine,
        requests: list[Request],
        tracer: EngineTracer | None,
        faults: FaultPlan | None,
        profiler: "StepPhaseProfiler | None",
    ):
        cfg = self.config = engine.config
        self.engine = engine
        self.kv = engine.kv
        self.requests = requests
        self.faults = faults if faults is not None and not faults.empty else None
        self.abort_points: dict[int, int] = {}
        if self.faults is not None and faults.request_abort_rate > 0.0:
            ids = [r.request_id for r in requests]
            budgets = [r.max_new_tokens for r in requests]
            points = faults.request_abort_points(ids, budgets).tolist()
            self.abort_points = {i: p for i, p in zip(ids, points) if p >= 0}
        self.has_slos = any(
            r.ttft_slo is not None or r.e2e_slo is not None for r in requests
        )
        self.waiting = deque(
            sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        )
        self.expiry = DeadlineHeap()
        if self.has_slos:
            for r in self.waiting:
                self.expiry.push(r)
        self.retry_queue = RetryHeap()
        self.state = BatchState()
        self.prof = profiler if profiler is not None else _NullProfiler()
        self.committed_tokens = 0
        self.capacity = int(self.kv.token_capacity * cfg.kv_capacity_slack)
        # Simulated seconds: the clock and its breakdown (see charge()).
        self.clock = self.prefill_s = self.decode_s = 0.0
        self.gemm_s = self.attn_s = self.overhead_s = 0.0
        self.peak_batch = self.compute_steps = 0
        self.faults_injected = self.degraded_steps = 0
        self.max_decode_gap = 0.0
        self.last_decode_clock: float | None = None
        self.step_faults = repeat(None)  # each compute step's fault, in turn
        if self.faults is not None:
            # Drawn a window at a time (faults hold k at 1).
            self.step_faults = chain.from_iterable(
                faults.step_faults(b, _FAULT_WINDOW) for b in count(0, _FAULT_WINDOW)
            )
        live = live_obs.active()
        self.sinks: list[EngineEvents] = [s for s in (
            _EngineTelemetry(self.kv) if obs.enabled() else None,
            _LiveHooks(live, self.kv) if live is not None else None,
            tracer,
        ) if s is not None]
        # Faults, SLOs, degradation and event sinks act on every step; only
        # without them may an iteration advance several steps.
        self.multi_step = not (
            self.faults or self.has_slos or cfg.degrade_under_pressure or self.sinks
        )

    def charge(
        self, dts: list[float], gemm: float, attns: list[float], decode: bool
    ) -> list[float]:
        """Advance the clock and the totals over ``len(dts)`` steps of one
        fixed batch, adding step by step (the float sums of a per-step
        loop).  Returns the clock series: the start, then the end of each
        step."""
        step_overhead = self.config.step_overhead
        clocks = [self.clock]
        for dt, attn in zip(dts, attns):
            self.clock += dt
            if decode:
                self.decode_s += dt
            else:
                self.prefill_s += dt
            self.gemm_s += gemm
            self.attn_s += attn
            self.overhead_s += step_overhead
            clocks.append(self.clock)
        return clocks

    def release_kv(self, req: Request) -> None:
        """Return an admitted request's KV blocks and commitment."""
        self.kv.free(req.request_id)
        self.committed_tokens -= req.total_len

    def reject(self, req: Request, reason: str) -> None:
        req.reject(reason, self.clock)
        for sink in self.sinks:
            sink.reject(req, self.clock)

    def expire(self, req: Request, reason: str) -> None:
        """Terminally time a request out (deadline miss)."""
        req.time_out(reason, self.clock)
        for sink in self.sinks:
            sink.timeout(req, self.clock)

    def fail(self, req: Request, reason: str) -> None:
        """Terminally fail a request that holds no KV allocation."""
        req.fail(reason, self.clock)
        for sink in self.sinks:
            sink.fail(req, self.clock)

    def record_fault(self, kind: FaultKind, req: Request | None = None) -> None:
        """Count one injected fault: a step fault, or (``req`` given) a
        request abort."""
        self.faults_injected += 1
        for sink in self.sinks:
            sink.fault(kind.value, self.clock, req)
            if req is not None:
                sink.fault_hit(kind.value, req, self.clock)

    def retry_or_fail(self, req: Request, reason: str) -> None:
        """Reset a faulted in-flight request: back off and re-queue it, or
        fail it once the retry budget is spent.  The request must currently
        hold a KV allocation (and be synced from its row)."""
        req.reset_for_retry()
        self.release_kv(req)
        if req.retries > self.config.max_retries:
            self.fail(req, reason)
            return
        req.not_before = self.clock + self.config.retry_backoff * (
            2 ** (req.retries - 1)
        )
        self.retry_queue.push(req)
        for sink in self.sinks:
            sink.retry(req, self.clock, reason)

    def infeasible_reason(self, req: Request) -> str | None:
        """Why this request can never be served, or None if it can."""
        kv = self.kv
        if self.config.reserve_full_sequence:
            if req.total_len > self.capacity:
                return (
                    f"total_len {req.total_len} exceeds KV commit "
                    f"capacity {self.capacity}"
                )
            return None
        if kv.blocks_needed(req.prompt_len + kv.block_tokens) > kv.num_blocks:
            return (
                f"prompt_len {req.prompt_len} exceeds the KV pool "
                f"({kv.token_capacity} tokens)"
            )
        if kv.blocks_needed(req.total_len) > kv.num_blocks:
            return (
                f"total_len {req.total_len} exceeds the KV pool "
                f"({kv.token_capacity} tokens)"
            )
        return None

    def try_admit(self, req: Request) -> bool:
        """Try to allocate a request's KV under the configured discipline."""
        kv = self.kv
        if self.config.reserve_full_sequence:
            fits = self.committed_tokens + req.total_len <= self.capacity
        else:  # optimistic: prompt plus one growth block of headroom
            fits = kv.can_allocate(req.prompt_len + kv.block_tokens)
        return fits and kv.allocate(req.request_id, req.prompt_len)

    def clean_waiting(self) -> None:
        """Drop terminal (heap-swept) entries from the deque head."""
        while self.waiting and self.waiting[0].is_terminal:
            self.waiting.popleft()

    def next_wake(self) -> float:
        """When the queue head arrives or the first retry is due."""
        self.clean_waiting()
        head = self.waiting[0].arrival_time if self.waiting else float("inf")
        return min(head, self.retry_queue.next_ready_time())

    def start_request(self, req: Request) -> None:
        """Post-admission bookkeeping shared by the arrival and retry
        paths: whole-prompt prefill (when not chunking) and batch entry."""
        engine, sinks = self.engine, self.sinks
        self.committed_tokens += req.total_len
        req.phase = Phase.PREFILL
        for sink in sinks:
            sink.admit(req, self.clock)
        if self.config.prefill_chunk_tokens is None:
            # Whole-prompt prefill, serialized before decoding.
            step_overhead = self.config.step_overhead
            with obs.span(
                "engine.step", cat="serving", kind="prefill",
                batch=1, prefill_tokens=req.prompt_len,
            ):
                pf_gemm = engine.linear_stack_latency(req.prompt_len)
                pf_attn = engine.prefill_attention_time(req.prompt_len)
                dt = pf_gemm + pf_attn + step_overhead
            clocks = self.charge([dt], pf_gemm, [pf_attn], decode=False)
            req.prefill_progress = req.prompt_len
            req.phase = Phase.DECODE
            if sinks:
                step = Step(
                    "prefill", clocks[0], self.clock, dt, 1, 0, req.prompt_len,
                    req.prompt_len, pf_gemm, pf_attn, 0.0, step_overhead,
                    req.request_id, serialized=True,
                )
                for sink in sinks:
                    sink.step_cost(step)
                    sink.prefill_done(req, self.clock)
                    sink.step_end(step, 0)
        # Request aborts only hit a request's first attempt.
        abort_at = self.abort_points.get(req.request_id, -1) if req.retries == 0 else -1
        self.state.add(req, self.kv.sequence_row(req.request_id), abort_at)

    def settle(self, i: int, keep: np.ndarray) -> None:
        """Lifecycle of row ``i`` right after it decoded a token: the
        first-token stamp, then its scheduled abort (a fault beats the
        finish it may coincide with) or its finish, either of which drops
        the row from this step's ``keep``."""
        req = self.state.sync(i)
        gen = req.generated
        if gen == 1:
            req.first_token_time = self.clock
            for sink in self.sinks:
                sink.first_token(req, self.clock)
        if gen == self.state.abort_at[i]:
            # Per-request transient fault: the first attempt aborts here;
            # retries run clean.
            self.record_fault(FaultKind.REQUEST_ABORT, req)
            self.retry_or_fail(req, "request aborted")
            keep[i] = False
            return
        if gen < req.max_new_tokens:
            return
        keep[i] = False
        req.phase = Phase.FINISHED
        req.finish_time = self.clock
        self.release_kv(req)
        for sink in self.sinks:
            sink.finish(req, self.clock)

    def pick_victim(self, current: int) -> int | None:
        """Row of the most recently admitted decodable request other than
        row ``current``."""
        running = self.state.reqs
        for j in range(len(running) - 1, -1, -1):
            if j != current and running[j].phase is Phase.DECODE:
                return j
        return None

    def serve(self) -> ThroughputReport:
        """Loop until every request is terminal, then report."""
        engine, cfg, kv = self.engine, self.config, self.kv
        state, waiting, retry_queue = self.state, self.waiting, self.retry_queue
        sinks, prof, has_slos = self.sinks, self.prof, self.has_slos
        chunking = cfg.prefill_chunk_tokens
        eff_max_batch, eff_chunk = cfg.max_batch, chunking
        pressure_hot = pressure_cool = 0
        with obs.span(
            "serving.engine_run", cat="serving", model=engine.model.name,
            system=engine.system.name, requests=len(self.requests),
        ):
            spent = 0  # of max_steps: one per simulated step or idle pass
            while spent < cfg.max_steps:
                spent += 1
                prof.begin()
                if not state:
                    wake = self.next_wake()
                    if wake != float("inf") and wake > self.clock:
                        self.clock = wake  # idle until next arrival / backoff expiry

                # Shed every queued request whose deadline has already
                # passed, wherever it sits in the FIFO (the heap sweep; the
                # deque drops the now-terminal entries lazily).
                if has_slos:
                    for req in self.expiry.expired(self.clock):
                        self.expire(req, "expired while waiting")

                # Re-admission of backed-off retries (they were already
                # accepted once, so they queue ahead of new arrivals).  A
                # whole-prompt prefill moves the clock: read it afresh.
                while (
                    retry_queue
                    and len(state) < eff_max_batch
                    and retry_queue.next_ready_time() <= self.clock
                ):
                    req = retry_queue.peek()
                    if req.is_terminal:
                        # Already shed by the deadline sweep while backing
                        # off (its heap entry outlives the fault/retry).
                        retry_queue.pop()
                        continue
                    if has_slos and self.clock > min(
                        req.e2e_deadline, req.ttft_deadline
                    ):
                        # The deadline lapsed during backoff; shed it.
                        retry_queue.pop()
                        self.expire(req, "expired during retry backoff")
                        continue
                    if not self.try_admit(req):
                        break
                    retry_queue.pop()
                    self.start_request(req)

                # Admission.
                while True:
                    self.clean_waiting()
                    if not (
                        waiting
                        and len(state) < eff_max_batch
                        and waiting[0].arrival_time <= self.clock
                    ):
                        break
                    req = waiting[0]
                    reason = self.infeasible_reason(req)
                    if reason is not None:
                        # Admission control: this request can never fit;
                        # refuse it and keep serving the rest.
                        waiting.popleft()
                        self.reject(req, reason)
                        continue
                    if has_slos and self.clock > min(
                        req.e2e_deadline, req.ttft_deadline
                    ):
                        # Load shedding: the deadline expired while queued.
                        waiting.popleft()
                        self.expire(req, "expired while waiting")
                        continue
                    if not self.try_admit(req):
                        break
                    waiting.popleft()
                    self.start_request(req)

                if not state:
                    wake = self.next_wake()
                    if not waiting and not retry_queue:
                        break
                    if wake > self.clock:
                        continue  # fast-forward next iteration
                    # An arrived request could not enter an empty pool even
                    # though the feasibility check passed; refuse it rather
                    # than stalling the scheduler forever.
                    if waiting and waiting[0].arrival_time <= self.clock:
                        req = waiting.popleft()
                        self.reject(req, "admission failed with an empty KV pool")
                    else:
                        req = retry_queue.pop()
                        self.fail(req, "re-admission failed with an empty KV pool")
                    continue
                prof.lap("admit")

                # Partition and aggregate over the batch arrays.
                n_run = len(state)
                self.peak_batch = max(self.peak_batch, n_run)
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
                kv_rows = state.kv_row[dec_idx]
                # Event horizon (see run's docstring); arrivals bound k once
                # the step costs are known.
                k = state.horizon() if self.multi_step and n_dec == n_run else 1
                if k > 1:
                    k = min(k, kv.append_horizon(kv_rows), cfg.max_steps - spent + 1)

                # One continuous-batching iteration: decode tokens plus (when
                # chunking) one prompt chunk share the same GEMM pass.
                kind = ("mixed" if chunk else "decode") if n_dec else "prefill"
                fault = next(self.step_faults)
                prof.lap("schedule")
                m = n_dec + chunk
                with obs.span("engine.step", cat="serving", kind=kind) as step_span:
                    gemm = engine.linear_stack_latency(m)
                    # attn and dt are arrays over the k steps, whose decode
                    # context grows by n_dec a step (one kernel call; a
                    # plain int at k == 1 keeps that step on Python floats).
                    attn = 0.0
                    if n_dec:
                        attn += engine.decode_attention_time(
                            dec_context + n_dec * np.arange(k) if k > 1
                            else dec_context, n_dec,
                        )
                    attn_dec = attn
                    if chunk:
                        attn = attn + engine._chunk_attention_time(
                            chunk, prefill_req.prefill_progress
                        )
                    dt = gemm + attn + cfg.step_overhead
                    if fault is not None and fault.kind is FaultKind.STRAGGLER:
                        # The whole iteration straggles; the extra time is
                        # framework-side stall, not GEMM/attention work.
                        stall = dt * (fault.slowdown - 1.0)
                        dt = dt + stall
                        self.overhead_s += stall
                    step_span.set(batch=n_run, sim_seconds=dt)
                dts, attns = (dt.tolist(), attn.tolist()) if k > 1 else ([dt], [attn])
                if k > 1 and (waiting or retry_queue):
                    # Stop at the step whose clock reaches the next arrival
                    # or retry wake-up.  A due queue head is blocked and
                    # stays so while the batch is fixed.
                    clock = self.clock
                    wake = min(t for t in (
                        waiting[0].arrival_time if waiting else clock,
                        retry_queue.next_ready_time(), float("inf"),
                    ) if t > clock)
                    k = min(k, bisect_left(list(accumulate(dts, initial=clock)), wake))
                    del dts[k:], attns[k:]
                self.compute_steps += k
                spent += k - 1
                prof.step(k)
                prof.lap("model")
                clocks = self.charge(dts, gemm, attns, decode=n_dec > 0)
                if sinks:
                    # KV dequant: decode attention's history-streaming floor,
                    # capped by the attention time the kernel took.
                    kv_dq = min(attn_dec, kv_stream_seconds(
                        dec_context, engine._kv_bytes_per_token_per_gpu,
                        engine.spec.hbm_bandwidth,
                    )) if n_dec else 0.0
                    step = Step(
                        kind, clocks[0], self.clock, dt, n_run, n_dec, chunk,
                        int(state.ctx.sum()), gemm, attn, kv_dq,
                        dt - gemm - attn,
                        prefill_req.request_id if chunk else -1,
                        serialized=False,
                    )
                    for sink in sinks:
                        sink.step_cost(step)
                if n_dec:
                    # The run's first decode step has no gap before it.
                    last = self.last_decode_clock
                    clocks[0] = clocks[1] if last is None else last
                    gaps = map(sub, clocks[1:], clocks)
                    self.max_decode_gap = max(self.max_decode_gap, *gaps)
                    self.last_decode_clock = self.clock

                if fault is not None:
                    self.record_fault(fault.kind)

                # Rows still in the batch once this step settles; the
                # batch is compacted to them at the end of the step.
                keep = np.ones(n_run, dtype=bool)
                step_preemptions = tokens = 0
                # A kernel fault discards the step's results: the time is
                # spent but no tokens land and no prefill progress is made;
                # the engine retries the same work next iteration.
                if fault is None or fault.kind is not FaultKind.KERNEL_FAULT:
                    if chunk:
                        prefill_req.prefill_progress += chunk
                        state.set_prefill_progress(pf_i, prefill_req.prefill_progress)
                        if prefill_req.prefill_progress >= prefill_req.prompt_len:
                            # First decode happens next iteration.
                            prefill_req.phase = Phase.DECODE
                            state.mark_decode(pf_i)
                            for sink in sinks:
                                sink.prefill_done(prefill_req, self.clock)
                    if n_dec and kv.append_token_many(kv_rows, k):
                        state.advance(dec_idx, k)
                        tokens = n_dec * k
                        gen = state.gen[dec_idx]
                        events = dec_idx[
                            (gen == 1)
                            | (gen >= state.max_new[dec_idx])
                            | (gen == state.abort_at[dec_idx])
                        ]
                        for i in events.tolist():
                            self.settle(i, keep)
                    elif n_dec:
                        # The pool cannot grow every sequence at once: grow
                        # them one by one in admission order, preempting the
                        # most recently admitted decoder whenever it runs dry.
                        for i in dec_idx.tolist():
                            req = state.reqs[i]
                            if req.phase is not Phase.DECODE:
                                continue  # preempted earlier in this step
                            while not kv.append_token(req.request_id):
                                v = self.pick_victim(i)
                                if v is None:
                                    # Nothing decodable to evict: retry this
                                    # request after other work drains.
                                    req = state.sync(i)
                                    self.retry_or_fail(req, "KV pool exhausted")
                                    keep[i] = False
                                    break
                                victim = state.sync(v)
                                lost = victim.preempt()
                                step_preemptions += 1
                                self.release_kv(victim)
                                keep[v] = False
                                waiting.appendleft(victim)
                                if has_slos:
                                    self.expiry.push(victim)
                                for sink in sinks:
                                    sink.preempt(victim, self.clock, lost)
                            else:
                                state.advance(i)
                                tokens += 1
                                self.settle(i, keep)
                prof.lap("decode")
                for sink in sinks:
                    sink.step_end(step, tokens)
                prof.lap("heartbeat")

                if fault is not None and fault.kind is FaultKind.KV_LOSS:
                    # One running sequence's cache blocks are lost; the
                    # victim restarts from scratch (recompute) after backoff.
                    alive = np.flatnonzero(keep)
                    if alive.size:
                        i = int(alive[int(fault.victim_draw * alive.size) % alive.size])
                        victim = state.sync(i)
                        for sink in sinks:
                            sink.fault_hit(fault.kind.value, victim, self.clock)
                        self.retry_or_fail(victim, "KV blocks lost")
                        keep[i] = False

                if has_slos:
                    e2e_hit = self.clock > state.e2e_dl
                    hits = np.flatnonzero(keep & (
                        e2e_hit | ((state.gen == 0) & (self.clock > state.ttft_dl))
                    ))
                    for i in hits.tolist():
                        req = state.sync(i)
                        self.release_kv(req)
                        if e2e_hit[i]:
                            self.expire(req, "e2e deadline expired mid-flight")
                        else:
                            self.expire(req, "TTFT deadline expired")
                        keep[i] = False

                if cfg.degrade_under_pressure:
                    pressure = kv.used_blocks / kv.num_blocks if kv.num_blocks else 0.0
                    if pressure >= cfg.degrade_pressure or step_preemptions:
                        pressure_hot += 1
                        pressure_cool = 0
                    else:
                        pressure_cool += 1
                        pressure_hot = 0
                    if pressure_hot >= cfg.degrade_window:
                        pressure_hot = 0
                        eff_max_batch = max(1, eff_max_batch // 2)
                        if chunking is not None:
                            eff_chunk = max(cfg.block_tokens, eff_chunk // 2)
                    elif pressure_cool >= cfg.degrade_window:
                        pressure_cool = 0
                        eff_max_batch = min(cfg.max_batch, eff_max_batch * 2)
                        if chunking is not None and eff_chunk < chunking:
                            eff_chunk = min(chunking, eff_chunk * 2)
                    if eff_max_batch < cfg.max_batch or (
                        chunking is not None and eff_chunk < chunking
                    ):
                        self.degraded_steps += 1
                        for sink in sinks:
                            sink.degraded(self.clock)
                if not keep.all():
                    state.rebuild(keep)
                prof.lap("schedule")
            else:
                raise RuntimeError("max_steps exceeded; raise EngineConfig.max_steps")

        report = self.report()
        for sink in sinks:
            sink.end_run(report)
        return report

    def report(self) -> ThroughputReport:
        """The run's report.  Its request counters are one fold over the
        requests' terminal state; a transition is never counted twice."""
        engine, max_retries = self.engine, self.config.max_retries
        outcomes = dict.fromkeys(TERMINAL_PHASES, 0)
        output_tokens = preemptions = retries = on_time = good_output_tokens = 0
        for r in self.requests:
            outcomes[r.phase] += 1
            output_tokens += r.generated
            preemptions += r.preemptions
            # The fault that exhausts the budget counts in ``r.retries`` but
            # fails the request instead of re-queueing it.
            retries += min(r.retries, max_retries)
            if r.slo_met:  # finished, within every SLO
                on_time += 1
                good_output_tokens += r.generated
        completed, timed_out = outcomes[Phase.FINISHED], outcomes[Phase.TIMED_OUT]
        return ThroughputReport(
            system=engine.system.name,
            model=engine.model.name,
            requests_completed=completed,
            output_tokens=output_tokens,
            sim_seconds=self.clock,
            prefill_seconds=self.prefill_s,
            decode_seconds=self.decode_s,
            peak_batch=self.peak_batch,
            kv_token_capacity=self.kv.token_capacity,
            gemm_seconds=self.gemm_s,
            attention_seconds=self.attn_s,
            overhead_seconds=self.overhead_s,
            preemptions=preemptions,
            max_decode_gap=self.max_decode_gap,
            requests_failed=outcomes[Phase.FAILED],
            requests_rejected=outcomes[Phase.REJECTED],
            requests_timed_out=timed_out,
            retries=retries,
            deadline_misses=timed_out + completed - on_time,
            faults_injected=self.faults_injected,
            degraded_steps=self.degraded_steps,
            good_output_tokens=good_output_tokens,
            engine_steps=self.compute_steps,
        )
