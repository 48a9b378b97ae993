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
* one chrome-trace lifecycle instant per counted fault, failure, retry,
  rejection and timeout;
* obs telemetry, which counts engine events, agreeing with the report,
  which folds the requests' end state.

Liveness is the exception: optimistic admission can preempt two requests
against each other forever (a known defect, pinned by the strict xfail
test at the bottom), so the fuzzer caps the step count and checks the
invariants of every run that terminates.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.model.config import tiny_config
from repro.obs import live as live_obs
from repro.obs.registry import MetricsRegistry
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.memory_planner import WORKSPACE_FRACTION
from repro.serving.request import TERMINAL_PHASES, Phase, Request
from repro.serving.systems import build_system
from repro.serving.trace import EngineTracer

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


@st.composite
def _workloads(draw, max_arrival=2e-3):
    n = draw(st.integers(1, 12))
    ttft_slo = e2e_slo = None
    if draw(st.booleans()):
        ttft_slo, e2e_slo = draw(_slo), draw(_slo)
    return [
        Request(
            i,
            prompt_len=draw(st.integers(1, 64)),
            max_new_tokens=draw(st.integers(1, 64)),
            arrival_time=draw(st.floats(0.0, max_arrival)),
            ttft_slo=ttft_slo,
            e2e_slo=e2e_slo,
        )
        for i in range(n)
    ]


def _attributed(record):
    return (
        record["queue_seconds"]
        + sum(record["prefill"].values())
        + sum(record["decode"].values())
    )


@given(cfg=_configs, reqs=_workloads(), faults=_faults)
@settings(max_examples=40, deadline=None)
def test_engine_invariants(cfg, reqs, faults):
    engine = ServingEngine(
        MODEL, SYSTEM, config=EngineConfig(max_steps=_MAX_STEPS, **cfg)
    )
    tracer = EngineTracer()
    registry, _ = obs.enable(MetricsRegistry())
    live = live_obs.attach(window_seconds=1.0)
    try:
        report = engine.run(reqs, tracer=tracer, faults=faults)
    except RuntimeError:
        # max_steps: only the optimistic-admission livelock may hit it.
        if cfg["reserve_full_sequence"]:
            raise
        assume(False)
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
    records = live.attrib.completed()
    assert len(records) == len(reqs)
    eps = float(np.finfo(np.float32).eps)
    for rec in records:
        assert math.isclose(
            _attributed(rec), rec["e2e_seconds"], rel_tol=eps, abs_tol=eps
        ), rec

    # One lifecycle instant per counted event.
    kinds = [e.cat for e in tracer.events()]
    assert kinds.count("fault") == report.faults_injected
    assert kinds.count("failed") == report.requests_failed
    assert kinds.count("retry") == report.retries
    assert kinds.count("rejected") == report.requests_rejected
    assert kinds.count("timed_out") == report.requests_timed_out

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


def _outcome(engine, reqs, tracer=None):
    try:
        report = engine.run(reqs, tracer=tracer)
    except RuntimeError as err:  # max_steps: the same budget on both sides
        return str(err)
    return dataclasses.asdict(report), [
        (r.phase, r.generated, r.retries, r.first_token_time, r.finish_time)
        for r in reqs
    ]


@given(cfg=_configs, reqs=_workloads(max_arrival=5e-2))
@settings(max_examples=100, deadline=None)
def test_multi_step_iterations_match_single_steps(cfg, reqs):
    # Detached, the engine advances a pure-decode batch to its next event
    # in one iteration; an attached tracer holds it to one step per
    # iteration.  Both must produce the same run, float for float.
    # Arrivals spread over many steps, so some land mid-horizon.
    twin = copy.deepcopy(reqs)
    engine = ServingEngine(
        MODEL, SYSTEM, config=EngineConfig(max_steps=_MAX_STEPS, **cfg)
    )
    stepped = ServingEngine(
        MODEL, SYSTEM, config=EngineConfig(max_steps=_MAX_STEPS, **cfg)
    )
    assert _outcome(engine, reqs) == _outcome(stepped, twin, EngineTracer())


@pytest.mark.xfail(
    strict=True, raises=RuntimeError,
    reason="known defect: under optimistic admission the preemption victim "
    "is the most recently admitted decoder *other than* the one growing, so "
    "two requests that cannot fit together can evict each other forever",
)
def test_optimistic_preemption_makes_progress():
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
