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
the loop is arithmetically identical to the clean engine.  The policy
(:mod:`repro.serving.scheduler`) and the built-in event sinks
(:mod:`repro.serving.sinks`) live apart from this step executor.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat
from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.obs import live as live_obs
from repro.gpu.spec import A100_80G_SXM4, GPUSpec
from repro.kernels.attention import DECODE_ATTENTION, PREFILL_ATTENTION
from repro.model.config import ModelConfig
from repro.serving.batchstate import BatchState
from repro.serving.faults import FaultKind, FaultPlan
from repro.serving.memory_planner import DEFAULT_HBM_BYTES, plan_memory
from repro.serving.paged_kv import PagedKVManager
from repro.serving.parallel import TPConfig, TPStackModel
from repro.serving.request import TERMINAL_PHASES, Phase, Request
from repro.serving.scheduler import Scheduler
from repro.serving.sinks import _EngineTelemetry, _LiveHooks
from repro.serving.stepprof import _NullProfiler
from repro.serving.systems import ServingSystem
from repro.serving.trace import DEFAULT_STEP_OVERHEAD, EngineEvents, Step

if TYPE_CHECKING:
    from repro.serving.stepprof import StepPhaseProfiler

__all__ = ["EngineConfig", "ThroughputReport", "ServingEngine"]

#: Step faults drawn per FaultPlan.step_faults call.
_FAULT_WINDOW = 256
#: A step-time term: a float, or an array over a record's ``k`` steps.
_Times = float | np.ndarray


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    Attributes:
        max_batch: concurrent-sequence cap.
        block_tokens: paged-KV block granularity.
        hbm_bytes: usable device memory.
        max_steps: safety cap on simulated steps: every decode or prefill
            step counts one, as does every loop pass that steps nothing
            (an idle fast-forward, a refused admission).
        decode_attention: 'flash' (Flash-Decoding) or 'naive' — the paper's
            Section 7 attention-kernel axis.
        prefill_attention: 'flash' (FlashAttention) or 'naive'.
        reserve_full_sequence: admission reserves each request's whole
            sequence (True) or only its prompt, preempting when the pool
            runs dry (False); see :meth:`ServingEngine.run`.
        max_retries: transient-fault retry budget per request; a request
            whose fault count exceeds it ends ``FAILED``.
        degrade_under_pressure: enable graceful degradation — shrink the
            effective ``max_batch`` / ``prefill_chunk_tokens`` while the KV
            pool stays hot instead of thrashing on preemptions.

    The KV commit slack, the retry backoff and the degradation ladder's
    pressure and window are constants of :mod:`repro.serving.scheduler`.
    """

    max_batch: int = 512
    block_tokens: int = 16
    hbm_bytes: float = DEFAULT_HBM_BYTES
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
    max_retries: int = 2
    degrade_under_pressure: bool = False

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
            (self.max_retries < 0, "max_retries must be >= 0"),
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
        self._prefill_cache: dict[int, tuple[float, float, float]] = {}

    # ------------------------------------------------------------------
    # Step-time model
    # ------------------------------------------------------------------

    def linear_stack_latency(self, m: int) -> float:
        """GEMM time of all linear layers for one forward pass at ``m``
        tokens (cached per m); includes TP collectives when sharded."""
        return self._stack.stack_latency(m)

    def step_time(
        self,
        n_dec: int = 0,
        context: int | np.ndarray = 0,
        chunk: int = 0,
        progress: int = 0,
        prompt_len: int = 0,
        slowdown: float = 1.0,
    ) -> tuple[float, _Times, _Times, _Times, _Times]:
        """``(gemm, attention, kv_dequant, stall, dt)`` of one forward over
        ``n_dec`` decoding rows with ``context`` cached tokens in all plus
        one prompt ``chunk`` ``progress`` tokens into its prompt, or of a
        whole-prompt prefill of ``prompt_len`` tokens; a straggler takes
        ``slowdown`` times as long (docs/simulator.md, "Attention and
        serving").  An array ``context`` (one entry per step of a record)
        makes the time terms arrays, each entry bit-equal to the call at
        that context.  The GEMM stack is cached per ``m`` and a
        whole-prompt prefill per prompt length (real traces repeat them)."""
        model, hbm = self.model, self.spec.hbm_bandwidth
        # KV bytes streamed per token by one GPU (heads shard under TP).
        kv_bytes = self.plan.kv_bytes_per_token / self.config.tensor_parallel
        kv_dq = 0.0
        if prompt_len:
            cost = self._prefill_cache.get(prompt_len)
            if cost is None:
                with obs.span(
                    "engine.step", cat="serving", kind="prefill", batch=1,
                    prefill_tokens=prompt_len,
                ):
                    gemm = self.linear_stack_latency(prompt_len)
                    attn = self.prefill_attention.latency(
                        prompt_len, model.d_model, model.n_layers
                    ) + prompt_len * kv_bytes / hbm  # plus the KV write
                    cost = self._prefill_cache[prompt_len] = (
                        gemm, attn, gemm + attn + DEFAULT_STEP_OVERHEAD
                    )
            gemm, attn, dt = cost
        else:
            # Decode tokens and one prompt chunk share the GEMM pass.
            gemm = self.linear_stack_latency(n_dec + chunk)
            attn = 0.0
            if n_dec:
                # Figure 2's memory-bound activation-activation operator
                # under the configured kernel, plus per-layer elementwise
                # traffic.
                attn = self.decode_attention.latency(
                    n_dec, context, kv_bytes, model.d_model, model.n_layers,
                    model.n_kv_heads,
                ) + (n_dec * model.d_model * model.n_layers * 20 * 2) / hbm
                # KV dequant: the history-streaming floor, capped by the
                # attention time the kernel took.
                floor = context * kv_bytes / hbm
                kv_dq = (np.minimum(attn, floor) if isinstance(attn, np.ndarray)
                         else min(attn, floor))
            if chunk:
                # chunk queries attend to ~(progress + chunk/2) keys on
                # average, read the history and write their own KV.
                flops = 2.0 * chunk * (progress + chunk / 2.0) * model.d_model * 2.0
                attn = attn + (
                    flops * model.n_layers / self.spec.tc_tput("fp16")
                    + (progress * kv_bytes + chunk * kv_bytes) / hbm
                )
            dt = gemm + attn + DEFAULT_STEP_OVERHEAD
        stall = 0.0
        if slowdown != 1.0:
            # The whole step straggles; the extra time is framework-side
            # stall, not GEMM/attention work.
            stall = dt * (slowdown - 1.0)
            dt = dt + stall
        return gemm, attn, kv_dq, stall, dt

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------

    def run(
        self,
        requests: list[Request],
        sink: EngineEvents | None = None,
        faults: FaultPlan | None = None,
        profiler: "StepPhaseProfiler | None" = None,
    ) -> ThroughputReport:
        """Serve a request list to completion and report throughput.

        The loop reports every request transition, and every iteration as
        one :class:`repro.serving.trace.Step` record, as an engine event
        (:class:`repro.serving.trace.EngineEvents`) to its sinks: obs
        telemetry while ``repro.obs`` is enabled (the one writer of the obs
        simulated timeline: steps and lifecycle instants), the attached
        live-observability bundle, and any further
        :class:`repro.serving.trace.EngineEvents` passed as ``sink``.  Pass a
        :class:`repro.serving.faults.FaultPlan` as ``faults`` to run under
        injected transient failures (chaos mode).  A
        :class:`repro.serving.stepprof.StepPhaseProfiler` as ``profiler``
        attributes the loop's *wall-clock* cost to scheduling phases (the
        high-concurrency benchmark tier reads this; simulated results are
        unaffected).

        The running batch lives in numpy blocks (:class:`BatchState`), so
        each iteration's bookkeeping is a fixed handful of array operations:
        the decoding rows are a slice of the batch when no prefill chunk is
        in flight, and the rows due a lifecycle event (first token, abort,
        finish) are those whose generated count has reached their next-event
        column.  Faults, aborts, finishes and expiries are row operations,
        and only a step whose KV growth needs preemption walks the decoding
        rows one by one.
        One iteration advances a pure-decode batch ``k`` steps, up to its
        next event: the step before a first token, finish or abort (whose
        step is an iteration of its own, so no request event fires inside a
        multi-step record), the step whose clock reaches the next arrival,
        the end of the ``max_steps`` budget, or the last step whose KV block
        crossings the free pool covers (a record may cross block boundaries
        on any of its steps).  Its record carries the ``k`` steps' times;
        the clock and the report's seconds fold from it
        (:meth:`_Run.charge`), and every float is the one a step-at-a-time
        loop computes, for the sinks too: a sink expands the record
        (:meth:`repro.serving.trace.Step.each`), and as no request event
        fires inside it, what it records, and what a live bundle's
        heartbeat hook reads, is what one step per iteration gives.
        Faults, SLOs, degradation and a prefill chunk in flight hold ``k``
        at 1.

        Admission, preemption and degradation are the policy of a
        :class:`repro.serving.scheduler.Scheduler`; the loop executes its
        decisions.  Requests with nonzero ``arrival_time`` form a trace: the
        clock fast-forwards over idle gaps and admission only considers
        arrived requests.  Each iteration starts with an admission pass,
        decided whole (:meth:`repro.serving.scheduler.Scheduler.admission_pass`)
        and replayed in order (:meth:`_Run.admit_pass`): one pool take for
        all its admissions, then per request its ``admit`` event and, when
        not chunking, its whole-prompt prefill record, with the refusals
        and sheds in between, each at the clock the prefills before it
        reached; the admissions join the batch together.  A step's finishes
        go back to the pool together, in row order (:meth:`_Run.settle`).
        Sinks read the pool as of each event (see
        :class:`repro.serving.trace.EngineEvents`).  Two memory disciplines
        are supported:

        * ``reserve_full_sequence=True`` (default): admission reserves each
          request's full sequence, so decoding never runs out of KV blocks
          — the deterministic max-batch setting of the paper's evaluation;
        * ``reserve_full_sequence=False``: admission is optimistic (prompt
          only) and the engine preempts the most recently admitted running
          sequence, prefilling or decoding, the growing one included
          (recompute-style, as in vLLM), when the pool runs dry; the oldest
          request always progresses.

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
        return _Run(self, requests, sink, faults, profiler).serve()


class _Run:
    """The step executor of one :meth:`ServingEngine.run`: the running
    batch, the clock and the counters no request carries, with the
    transitions as methods.  Admission, preemption and degradation are the
    :class:`Scheduler`'s decisions; :meth:`report` folds the request
    counters from the requests."""

    def __init__(
        self,
        engine: ServingEngine,
        requests: list[Request],
        sink: EngineEvents | None,
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
        self.sched = Scheduler(cfg, self.kv, requests)
        self.state = BatchState()
        self.prof = profiler if profiler is not None else _NullProfiler()
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
        live_hooks = _LiveHooks(live, self.kv) if live is not None else None
        # The live sink settles KV economics at the pool's block crossings.
        self.kv.on_grow = None if live_hooks is None else live_hooks.kv_grown
        self.sinks: list[EngineEvents] = [s for s in (
            _EngineTelemetry(self.kv) if obs.enabled() else None,
            live_hooks,
            sink,
        ) if s is not None]
        # Requests in arrival order, and how many of them have arrived
        # (see arrive_due()).
        self.arrivals = list(self.sched.waiting)
        self.arrived = 0
        # Faults, SLOs and degradation act on every step; only without them
        # may an iteration advance several steps.
        self.multi_step = not (
            self.faults or self.sched.has_slos or cfg.degrade_under_pressure
        )

    def charge(self, step: Step) -> None:
        """Fold one record into the clock, its breakdown, the decode gap
        and the step count, adding step by step (the float sums of a
        per-step loop), and report it to the sinks."""
        decode = step.kind != "prefill"
        gemm = step.gemm
        for dt, attn, stall in zip(step.dt, step.attention, step.stall):
            self.clock += dt
            if decode:
                self.decode_s += dt
                # The run's first decode step has no gap before it.
                last = self.last_decode_clock
                if last is not None and self.clock - last > self.max_decode_gap:
                    self.max_decode_gap = self.clock - last
                self.last_decode_clock = self.clock
            else:
                self.prefill_s += dt
            self.gemm_s += gemm
            self.attn_s += attn
            self.overhead_s += stall
            self.overhead_s += DEFAULT_STEP_OVERHEAD
        if not step.serialized:  # a whole-prompt prefill is an admission
            self.compute_steps += step.k
        for sink in self.sinks:
            sink.step_cost(step)

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
        self.sched.release(req)
        if req.retries > self.config.max_retries:
            self.fail(req, reason)
            return
        self.sched.back_off(req, self.clock)
        for sink in self.sinks:
            sink.retry(req, self.clock, reason)

    def arrive_due(self) -> None:
        """Count every request whose arrival time the clock has reached as
        arrived, reporting each to the sinks once; the next arrival bounds
        the event horizon."""
        arrivals, i = self.arrivals, self.arrived
        while i < len(arrivals) and arrivals[i].arrival_time <= self.clock:
            for sink in self.sinks:
                sink.arrive(arrivals[i], self.clock)
            i += 1
        self.arrived = i

    def admit_pass(self) -> None:
        """Carry out one admission pass (:meth:`Scheduler.admission_pass`)
        in its order.  An admitted request enters PREFILL; when not
        chunking, its whole-prompt prefill follows at once, a step of its
        own serialized before decoding, and the requests that arrived
        while it ran are reported.  Refusals and sheds land between
        admissions at the clock the prefills before them reached.  The
        admitted requests then join the batch together."""
        decided, rows = self.sched.admission_pass(self)
        sinks = self.sinks
        if rows and sinks:
            # The pool took the pass's blocks before its first event.
            reqs = [req for kind, req, _ in decided if kind == "admit"]
            blocks = sum(self.kv.blocks_needed(r.prompt_len) for r in reqs)
            tokens = sum(r.prompt_len for r in reqs)
            for sink in sinks:
                sink.kv_taken(tokens, blocks)
        admitted, aborts = [], []
        for kind, req, cost in decided:
            if kind == "reject":
                self.reject(req, cost)
                continue
            if kind == "expire":
                self.expire(req, cost)
                continue
            req.phase = Phase.PREFILL
            for sink in sinks:
                sink.admit(req, self.clock)
            if cost is not None:
                gemm, attn, kv_dq, stall, dt = cost
                n = req.prompt_len
                step = Step(
                    "prefill", self.clock, 1, (dt,), 1, 0, n, n, gemm, (attn,),
                    (kv_dq,), (stall,), req.request_id, True,
                )
                self.charge(step)
                req.prefill_progress = n
                req.phase = Phase.DECODE
                for sink in sinks:
                    sink.prefill_done(req, self.clock)
                    sink.step_end(step, 0)
                self.arrive_due()  # the prefill moved the clock
            admitted.append(req)
            # Request aborts only hit a request's first attempt.
            aborts.append(
                self.abort_points.get(req.request_id, -1) if req.retries == 0 else -1
            )
        if admitted:
            self.state.add_many(admitted, rows, aborts)

    def settle(self, rows: list[int], aborts: list[int], keep: np.ndarray) -> None:
        """Lifecycle of the batch rows ``rows`` (scheduled to abort at
        ``aborts``), which just decoded the token of their next event, in
        row order: each row's first-token stamp, then its abort (a fault
        beats the finish it may coincide with) or its finish, either of
        which drops the row from this step's ``keep``; a row that lives on
        moves its event to its abort or finish.  The finished rows' blocks
        return to the pool together, in row order, before an abort's
        (so the free stack is that of one release per row) and before a
        finish reaches the sinks, which read the pool as of it."""
        state, sinks, clock = self.state, self.sinks, self.clock
        done: list[Request] = []  # finished, their blocks not yet released
        for i, abort_at in zip(rows, aborts):
            req = state.sync(i)
            gen = req.generated
            if gen == 1:
                req.first_token_time = clock
                for sink in sinks:
                    sink.first_token(req, clock)
            if gen == abort_at:
                # Per-request transient fault: the first attempt aborts
                # here; retries run clean.
                if done:
                    self.sched.release(*done)
                    done.clear()
                self.record_fault(FaultKind.REQUEST_ABORT, req)
                self.retry_or_fail(req, "request aborted")
                keep[i] = False
            elif gen < req.max_new_tokens:
                state.next_event(i, req.max_new_tokens, abort_at)
            else:
                keep[i] = False
                req.phase = Phase.FINISHED
                req.finish_time = clock
                done.append(req)
                if sinks:
                    self.sched.release(*done)
                    done.clear()
                    for sink in sinks:
                        sink.finish(req, clock)
        if done:
            self.sched.release(*done)

    def serve(self) -> ThroughputReport:
        """Loop until every request is terminal, then report."""
        engine, cfg, kv, sched = self.engine, self.config, self.kv, self.sched
        state, sinks, prof = self.state, self.sinks, self.prof
        with obs.span(
            "serving.engine_run", cat="serving", model=engine.model.name,
            system=engine.system.name, requests=len(self.requests),
        ):
            spent = 0  # of max_steps: one per simulated step or idle pass
            while spent < cfg.max_steps:
                spent += 1
                prof.begin()
                if not state:
                    wake = sched.next_wake()
                    if wake != float("inf") and wake > self.clock:
                        self.clock = wake  # idle until next arrival / backoff expiry
                self.arrive_due()
                self.admit_pass()
                if not state:
                    wake = sched.next_wake()
                    if wake == float("inf"):
                        break  # nothing waits or backs off: all terminal
                    if wake <= self.clock:
                        sched.refuse_head(self)
                    continue  # fast-forward next iteration
                prof.lap("admit")

                # Partition and aggregate over the batch arrays: a slice
                # when every row decodes, else the decoding rows' indices.
                n_run = len(state)
                self.peak_batch = max(self.peak_batch, n_run)
                n_dec = int(np.count_nonzero(state.decoding))
                dec = slice(None)
                pf_i = -1
                prefill_req = None
                chunk = progress = 0
                if n_dec < n_run:
                    dec = state.decoding.nonzero()[0]
                    pf_i = int((~state.decoding).nonzero()[0][0])
                    prefill_req = state.reqs[pf_i]
                    progress = prefill_req.prefill_progress
                    chunk = min(sched.chunk, prefill_req.prompt_len - progress)
                dec_context = int(state.ctx[dec].sum())
                kv_rows = state.kv_row[dec]
                # Event horizon (see run's docstring): up to the step before
                # the next event; arrivals bound k once the step costs are known.
                k = (max(state.horizon() - 1, 1)
                     if self.multi_step and n_dec == n_run else 1)
                if k > 1:
                    k = kv.append_horizon(kv_rows, min(k, cfg.max_steps - spent + 1))

                # One continuous-batching iteration: decode tokens plus (when
                # chunking) one prompt chunk share the same GEMM pass.
                kind = ("mixed" if chunk else "decode") if n_dec else "prefill"
                fault = next(self.step_faults)
                prof.lap("schedule")
                # At k > 1 the step times are arrays over the k steps, whose
                # decode context grows by n_dec a step (one kernel call; a
                # plain int at k == 1 keeps that step on Python floats).
                ctx = dec_context + n_dec * np.arange(k) if k > 1 else dec_context
                with obs.span("engine.step", cat="serving", kind=kind, batch=n_run):
                    gemm, attn, kv_dq, stall, dt = engine.step_time(
                        n_dec, ctx, chunk, progress,
                        slowdown=1.0 if fault is None else fault.slowdown,
                    )
                if k > 1:
                    dts, attns, kv_dqs = dt.tolist(), attn.tolist(), kv_dq.tolist()
                    # Stop at the step whose clock reaches the next arrival
                    # (retry wake-ups come from faults, which hold k at 1).
                    if self.arrived < len(self.arrivals):
                        clocks = list(accumulate(dts, initial=self.clock))
                        k = min(k, bisect_left(
                            clocks, self.arrivals[self.arrived].arrival_time
                        ))
                        del dts[k:], attns[k:], kv_dqs[k:]
                    stalls = (0.0,) * k
                else:
                    dts, attns, kv_dqs, stalls = (dt,), (attn,), (kv_dq,), (stall,)
                spent += k - 1
                prof.step(k)
                prof.lap("model")
                step = Step(
                    kind, self.clock, k, dts, n_run, n_dec, chunk,
                    dec_context if n_dec == n_run else int(state.ctx.sum()),
                    gemm, attns, kv_dqs, stalls,
                    prefill_req.request_id if chunk else -1, False,
                )
                self.charge(step)
                if fault is not None:
                    self.record_fault(fault.kind)

                # Rows still in the batch once this step settles; the
                # batch is compacted to them at the end of the step.
                keep = np.ones(n_run, dtype=bool)
                preempted = False
                tokens = 0
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
                        state.advance(dec, k)
                        tokens = n_dec * k
                        # Only rows that advanced can be at their event.
                        events = state.at_event()
                        self.settle(
                            events.tolist(), state.abort_at[events].tolist(), keep
                        )
                    elif n_dec:
                        # The pool cannot grow every sequence at once: grow
                        # them one by one in admission order, preempting the
                        # scheduler's victim whenever the pool runs dry.
                        for i in np.arange(n_run)[dec].tolist():
                            req = state.reqs[i]
                            if req.phase is not Phase.DECODE:
                                continue  # preempted earlier in this step
                            while not kv.append_token(req.request_id):
                                v = sched.victim(state.reqs)
                                victim = state.sync(v)
                                lost = victim.preempt()
                                preempted = True
                                keep[v] = False
                                sched.requeue(victim)
                                for sink in sinks:
                                    sink.preempt(victim, self.clock, lost)
                                if v == i:
                                    break  # the grower was the newest
                            else:
                                state.advance(i)
                                tokens += 1
                                if state.gen[i] == state.event[i]:
                                    # Settled at once: its release may
                                    # spare the next row a preemption.
                                    self.settle([i], [int(state.abort_at[i])], keep)
                prof.lap("decode")
                for sink in sinks:
                    sink.step_end(step, tokens)
                prof.lap("heartbeat")

                if fault is not None and fault.kind is FaultKind.KV_LOSS:
                    # One running sequence's cache blocks are lost; the
                    # victim restarts from scratch (recompute) after backoff.
                    alive = keep.nonzero()[0]
                    if alive.size:
                        i = int(alive[int(fault.victim_draw * alive.size) % alive.size])
                        victim = state.sync(i)
                        for sink in sinks:
                            sink.fault_hit(fault.kind.value, victim, self.clock)
                        self.retry_or_fail(victim, "KV blocks lost")
                        keep[i] = False

                if sched.has_slos:
                    e2e_hit = self.clock > state.e2e_dl
                    hits = (keep & (
                        e2e_hit | ((state.gen == 0) & (self.clock > state.ttft_dl))
                    )).nonzero()[0]
                    for i in hits.tolist():
                        req = state.sync(i)
                        sched.release(req)
                        if e2e_hit[i]:
                            self.expire(req, "e2e deadline expired mid-flight")
                        else:
                            self.expire(req, "TTFT deadline expired")
                        keep[i] = False

                if cfg.degrade_under_pressure:
                    pressure = kv.used_blocks / kv.num_blocks if kv.num_blocks else 0.0
                    if sched.observe(pressure, preempted):
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
