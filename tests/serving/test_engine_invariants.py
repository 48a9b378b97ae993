"""Engine invariants across the configuration space (hypothesis fuzzer).

Whatever the knobs — full-sequence or optimistic admission, chunked or
whole-prompt prefill, TP degree 1 or 2, graceful degradation, a fault plan
with kernel faults, KV loss, stragglers and request aborts, TTFT / e2e
SLOs — every run of a small-model workload must satisfy:

* the terminal-phase partition: each request ends in exactly one terminal
  phase and the report's per-outcome counts match the requests;
* token conservation: the report's output tokens are the tokens the
  requests hold;
* a KV pool fully freed at exit;
* the cost ledger's per-request components summing to each e2e;
* every preemption evicting the most recently admitted running request;
* one lifecycle instant on the obs timeline per counted fault, failure,
  retry, rejection and timeout, and one ``queued`` instant per request;
* obs telemetry, which counts engine events, agreeing with the report,
  which folds the requests' end state.

Every run must also terminate well within ``_MAX_STEPS``: under
optimistic admission the preemption victim is the newest running
request, prefilling or decoding, the growing one included, so the oldest
request always makes progress.  Some prompts are long enough that a
chunked prefill outlasts a block's worth of an older request's decode.
"""

import copy
import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.model.config import tiny_config
from repro.obs import live as live_obs
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.serving.batchstate import BatchState
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.memory_planner import WORKSPACE_FRACTION
from repro.serving.request import TERMINAL_PHASES, Phase, Request
from repro.serving.systems import build_system
from repro.serving.trace import EngineEvents

MODEL = tiny_config(name="fuzz")
SYSTEM = build_system("comet")
_KV_BYTES_PER_TOKEN = MODEL.kv_values_per_token() * SYSTEM.kv_bytes_per_value
_WEIGHT_BYTES = MODEL.weight_parameters() * SYSTEM.weight_bytes_per_param
#: Far above any terminating run here (a few hundred steps).
_MAX_STEPS = 20_000


def _hbm_for(pool_tokens: int) -> float:
    """Single-GPU HBM whose KV pool holds about ``pool_tokens`` tokens."""
    return (_WEIGHT_BYTES + pool_tokens * _KV_BYTES_PER_TOKEN) / (
        1.0 - WORKSPACE_FRACTION
    )


_faults = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 2**16),
        step_fault_rate=st.floats(0.0, 0.3),
        kv_loss_rate=st.floats(0.0, 0.1),
        straggler_rate=st.floats(0.0, 0.2),
        request_abort_rate=st.floats(0.0, 0.5),
    ),
)

_configs = st.fixed_dictionaries({
    "max_batch": st.integers(1, 8),
    "hbm_bytes": st.integers(32, 768).map(_hbm_for),
    "reserve_full_sequence": st.booleans(),
    "prefill_chunk_tokens": st.sampled_from([None, 16, 48]),
    "tensor_parallel": st.sampled_from([1, 2]),
    "degrade_under_pressure": st.booleans(),
    "max_retries": st.integers(0, 2),
})

_slo = st.one_of(st.none(), st.floats(1e-3, 3e-2))

# Mostly short prompts, with some long enough that a chunked prefill
# outlasts a block's worth of decode steps of an older request.
_prompt_lens = st.one_of(st.integers(1, 64), st.integers(65, 320))


@st.composite
def _workloads(draw, max_arrival=2e-3):
    n = draw(st.integers(1, 12))
    ttft_slo = e2e_slo = None
    if draw(st.booleans()):
        ttft_slo, e2e_slo = draw(_slo), draw(_slo)
    return [
        Request(
            i,
            prompt_len=draw(_prompt_lens),
            max_new_tokens=draw(st.integers(1, 64)),
            arrival_time=draw(st.floats(0.0, max_arrival)),
            ttft_slo=ttft_slo,
            e2e_slo=e2e_slo,
        )
        for i in range(n)
    ]


class _VictimCheck(EngineEvents):
    """Checks the victim rule on the event stream: every preemption evicts
    the most recently admitted request still running."""

    def __init__(self):
        self.running = []  # request ids, in admission order

    def admit(self, req, clock):
        self.running.append(req.request_id)

    def preempt(self, req, clock, lost):
        assert self.running.pop() == req.request_id

    def leave(self, req, clock, *_):
        if req.request_id in self.running:
            self.running.remove(req.request_id)

    finish = retry = fail = timeout = leave


def _attributed(record):
    return (
        record["queue_seconds"]
        + sum(record["prefill"].values())
        + sum(record["decode"].values())
    )


@given(cfg=_configs, reqs=_workloads(), faults=_faults)
@settings(max_examples=300, deadline=None)
def test_engine_invariants(cfg, reqs, faults):
    engine = ServingEngine(
        MODEL, SYSTEM, config=EngineConfig(max_steps=_MAX_STEPS, **cfg)
    )
    registry, spans = obs.enable(MetricsRegistry())
    live = live_obs.attach(window_seconds=1.0)
    try:
        report = engine.run(reqs, sink=_VictimCheck(), faults=faults)
    finally:
        live_obs.detach()
        obs.disable()

    # Terminal-phase partition.
    assert all(r.phase in TERMINAL_PHASES for r in reqs)
    phases = [r.phase for r in reqs]
    assert phases.count(Phase.FINISHED) == report.requests_completed
    assert phases.count(Phase.FAILED) == report.requests_failed
    assert phases.count(Phase.REJECTED) == report.requests_rejected
    assert phases.count(Phase.TIMED_OUT) == report.requests_timed_out

    # Token conservation.
    assert report.output_tokens == sum(r.generated for r in reqs)
    assert all(
        r.generated == r.max_new_tokens
        for r in reqs if r.phase is Phase.FINISHED
    )

    # The KV pool is fully freed at exit.
    assert engine.kv.free_blocks == engine.kv.num_blocks

    # Cost-ledger components sum to each request's e2e.
    records = live.flights.attribution()["records"]
    assert len(records) == len(reqs)
    eps = float(np.finfo(np.float32).eps)
    for rec in records:
        assert math.isclose(
            _attributed(rec), rec["e2e_seconds"], rel_tol=eps, abs_tol=eps
        ), rec

    # One lifecycle instant per counted event.
    names = [r.name for r in spans.records if r.domain == "sim" and r.instant]
    assert names.count("serving.fault") == report.faults_injected
    for stage, value in (
        ("failed", report.requests_failed),
        ("retry", report.retries),
        ("rejected", report.requests_rejected),
        ("timed_out", report.requests_timed_out),
        ("queued", len(reqs)),
    ):
        assert names.count(f"serving.request.{stage}") == value, stage

    # Telemetry agrees with the report.
    def counted(name):
        return sum(c.value for _, c in registry.get(f"serving.{name}").series())

    for name, value in (
        ("requests_finished_total", report.requests_completed),
        ("requests_failed_total", report.requests_failed),
        ("rejected_total", report.requests_rejected),
        ("requests_timed_out_total", report.requests_timed_out),
        ("retries_total", report.retries),
        ("deadline_misses_total", report.deadline_misses),
        ("preemptions_total", report.preemptions),
        ("faults_injected_total", report.faults_injected),
        ("degraded_steps_total", report.degraded_steps),
    ):
        assert counted(name) == value, name
    # Telemetry also counts tokens a preemption or retry later discards.
    assert counted("output_tokens_total") >= report.output_tokens


def _outcome(engine, reqs, sink=None):
    try:
        report = engine.run(reqs, sink=sink)
    except RuntimeError as err:  # max_steps: the same budget on both sides
        return str(err)
    return dataclasses.asdict(report), [
        (r.phase, r.generated, r.retries, r.first_token_time, r.finish_time)
        for r in reqs
    ]


def _one_step():
    """Hold the engine to one step per loop iteration: the reference its
    event horizon must match."""
    return mock.patch.object(BatchState, "horizon", lambda self: 1)


def _engines(cfg):
    return [
        ServingEngine(MODEL, SYSTEM, config=EngineConfig(max_steps=_MAX_STEPS, **cfg))
        for _ in range(2)
    ]


@given(cfg=_configs, reqs=_workloads(max_arrival=5e-2))
@settings(max_examples=100, deadline=None)
def test_multi_step_iterations_match_single_steps(cfg, reqs):
    # The engine advances a pure-decode batch to its next event in one
    # iteration; held to one step per iteration, it must produce the same
    # run, float for float.  Arrivals spread over many steps, so some land
    # mid-horizon.
    twin = copy.deepcopy(reqs)
    engine, stepped = _engines(cfg)
    with _one_step():
        reference = _outcome(stepped, twin)
    assert _outcome(engine, reqs) == reference


class _StepRecorder(EngineEvents):
    """Keeps every record reported, and the steps of each."""

    def __init__(self):
        self.records = []
        self.steps = []

    def step_cost(self, step):
        self.records.append(step)
        self.steps.extend(step.each())


def _observed(engine, reqs):
    """A run with every observer attached: its outcome, the steps a
    recording sink saw, the obs simulated-domain records and serving
    metrics, the flight records and the live snapshot."""
    registry, spans = obs.enable(MetricsRegistry(), SpanTracer())
    live = live_obs.attach(capacity=len(reqs))
    recorder = _StepRecorder()
    try:
        outcome = _outcome(engine, reqs, recorder)
    finally:
        live_obs.detach()
        obs.disable()
    metrics = {
        f.name: [
            (labels, child.counts, child.sum, child.count)
            if isinstance(f, Histogram) else (labels, child.value)
            for labels, child in f.series()
        ]
        for f in registry.collect() if f.name.startswith("serving.")
    }
    return (
        outcome, recorder.steps,
        [(r.name, r.cat, r.start, r.duration, r.instant, r.attrs)
         for r in spans.records if r.domain == "sim"],
        metrics,
        [r.to_dict() for r in live.flights.completed()],
        live.snapshot(),
    )


@given(cfg=_configs, reqs=_workloads(max_arrival=5e-2))
@settings(max_examples=100, deadline=None)
def test_attached_multi_step_iterations_match_single_steps(cfg, reqs):
    # Attached sinks take the event horizon too: telemetry, the live
    # bundle and a recording sink must see what they see one step per
    # iteration, float for float (heartbeat flushes at every 64th step,
    # block crossings settled at their own step's clock).
    twin = copy.deepcopy(reqs)
    engine, stepped = _engines(cfg)
    with _one_step():
        reference = _observed(stepped, twin)
    assert _observed(engine, reqs) == reference


def test_lockstep_batch_crosses_block_boundaries_inside_one_record():
    # Eight 64/40 requests under full reservation decode in lockstep.
    # Every row crosses a 16-token block boundary at its first token and
    # again at tokens 17 and 33, all on the same steps, and no request
    # event falls between the first token and the finish: the decode is
    # the first-token step, one 38-step record and the finish step.
    def run(engine):
        reqs = [Request(i, prompt_len=64, max_new_tokens=40) for i in range(8)]
        recorder = _StepRecorder()
        report = engine.run(reqs, sink=recorder)
        return report, [r.k for r in recorder.records if r.kind == "decode"]

    engine, stepped = _engines({"max_batch": 8})
    assert engine.kv.block_tokens == 16
    report, decode = run(engine)
    assert decode == [1, 38, 1]
    with _one_step():
        reference, stepped_decode = run(stepped)
    assert stepped_decode == [1] * 40
    assert report == reference


def test_optimistic_preemption_makes_progress():
    # Three requests that cannot all fit a 7-block pool.  A victim rule
    # that spares the growing row lets two of them evict each other
    # forever; preempting the newest running request, the grower
    # included, lets the oldest request always progress.
    engine = ServingEngine(MODEL, SYSTEM, config=EngineConfig(
        hbm_bytes=_hbm_for(112), reserve_full_sequence=False,
        prefill_chunk_tokens=48, max_steps=5_000,
    ))
    assert engine.kv.num_blocks == 7
    reqs = [
        Request(0, prompt_len=2, max_new_tokens=62),
        Request(1, prompt_len=62, max_new_tokens=8),
        Request(2, prompt_len=43, max_new_tokens=61, arrival_time=1e-3),
    ]
    report = engine.run(reqs)
    assert report.requests_completed == 3


def test_preemption_evicts_a_newer_prefilling_row():
    # Two long prompts in a 41-block pool, prefilled 16 tokens a step: the
    # older request runs dry 17 tokens into its decode, while the newer
    # one is still on its 20-step prefill.  A victim rule that looks only
    # at decoders evicts the grower itself, and the two requests then
    # evict each other forever; the newest running row, prefilling or
    # not, must go instead.
    engine = ServingEngine(MODEL, SYSTEM, config=EngineConfig(
        hbm_bytes=_hbm_for(41 * 16), reserve_full_sequence=False,
        prefill_chunk_tokens=16, max_steps=5_000,
    ))
    assert engine.kv.num_blocks == 41
    reqs = [Request(i, prompt_len=320, max_new_tokens=100) for i in range(2)]
    report = engine.run(reqs)
    assert report.requests_completed == 2
    assert [r.preemptions for r in reqs] == [0, 1]
