"""Golden pins and regression tests for the engine's batch-array step loop.

The engine keeps its running batch only in :class:`BatchState` arrays.  A
per-request scalar loop used to run beside it as the correctness oracle;
before that loop was deleted, the two agreed bit for bit on every scenario
here, and their shared outcome — the full :class:`ThroughputReport` plus
every request's ``(phase, generated, retries, first_token_time,
finish_time)`` — was recorded in ``engine_goldens.json`` (floats as hex).
Each scenario must still reproduce its golden exactly.  The scenarios
cross every edge of the step loop: chunked prefill, optimistic admission
with preemptions, kernel/KV-loss/straggler/abort faults, SLO shedding,
graceful degradation, and the deadline sweep over the waiting queue.

Regenerate the goldens only for a deliberate semantic change::

    PYTHONPATH=src python tests/serving/test_vectorized_engine.py --regen

Also covered: units for the batch-state containers.
"""

import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.model.config import get_model_config
from repro.serving.batchstate import BatchState, DeadlineHeap, RetryHeap
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.request import Phase, Request
from repro.serving.stepprof import StepPhaseProfiler
from repro.serving.systems import build_system
from repro.serving.workload import make_overload_trace, make_poisson_trace

GOLDENS_PATH = Path(__file__).with_name("engine_goldens.json")

# A small device keeps the overload scenarios short (the KV pool, not the
# scenario shape, sets the step count).
_SMALL_HBM = 20e9

_CHAOS = dict(
    step_fault_rate=0.1, kv_loss_rate=0.02, straggler_rate=0.05,
    request_abort_rate=0.1,
)


@pytest.fixture(scope="module")
def llama8b():
    return get_model_config("llama-3-8b")


def _kv_capacity(llama8b):
    eng = ServingEngine(
        llama8b, build_system("comet"),
        config=EngineConfig(hbm_bytes=_SMALL_HBM),
    )
    return eng.kv.token_capacity


def _same_length_burst():
    return [
        Request(i, prompt_len=900, max_new_tokens=900, arrival_time=0.0)
        for i in range(10)
    ]


def _deep_queue():
    # r0 occupies the only batch slot; r1 (queue head) has a lenient
    # deadline; r2 sits BEHIND r1 with a deadline that lapses while r0 is
    # still decoding.
    return [
        Request(0, prompt_len=256, max_new_tokens=64, arrival_time=0.0),
        Request(1, prompt_len=64, max_new_tokens=8, arrival_time=0.0,
                e2e_slo=1000.0),
        Request(2, prompt_len=64, max_new_tokens=8, arrival_time=0.0,
                e2e_slo=1e-4),
    ]


def _anti_ordered_deadlines():
    # Deadlines deliberately anti-ordered vs queue position.
    return [Request(0, prompt_len=256, max_new_tokens=96, arrival_time=0.0)] + [
        Request(i, prompt_len=64, max_new_tokens=8, arrival_time=0.0,
                e2e_slo=slo)
        for i, slo in ((1, 3e-4), (2, 2e-4), (3, 1e-4))
    ]


def _scenarios(llama8b):
    """name -> (EngineConfig kwargs, trace factory, FaultPlan or None)."""
    cap = _kv_capacity(llama8b)
    small = {"hbm_bytes": _SMALL_HBM}
    return {
        "poisson_trace": (
            {**small, "max_batch": 32},
            lambda: make_poisson_trace(60, arrival_rate=64.0, seed=3),
            None,
        ),
        "chunked_prefill": (
            {**small, "max_batch": 24, "prefill_chunk_tokens": 256},
            lambda: make_poisson_trace(80, arrival_rate=96.0, seed=5),
            None,
        ),
        # A pool barely above the weights (~11k tokens): optimistic
        # admission overcommits within a few hundred steps and must preempt.
        "optimistic_admission_preemptions": (
            {"hbm_bytes": 4.8e9, "max_batch": 16,
             "reserve_full_sequence": False},
            _same_length_burst,
            None,
        ),
        "fault_chaos": (
            {**small, "max_batch": 24},
            lambda: make_poisson_trace(70, arrival_rate=80.0, seed=11),
            FaultPlan(seed=7, **_CHAOS),
        ),
        "slo_overload_shedding": (
            {**small, "max_batch": 32},
            lambda: make_overload_trace(
                60, cap, overload=4.0, ttft_slo=0.6, e2e_slo=4.0, seed=4
            ),
            None,
        ),
        "kitchen_sink": (
            {**small, "max_batch": 24, "prefill_chunk_tokens": 512,
             "degrade_under_pressure": True},
            lambda: make_overload_trace(
                80, cap, overload=3.0, ttft_slo=0.8, e2e_slo=5.0, seed=9
            ),
            FaultPlan(seed=3, step_fault_rate=0.06, kv_loss_rate=0.01),
        ),
        # Chunked prefill + TTFT SLOs + step faults deterministically shed
        # a request while it is backing off before a retry.
        "retry_backoff_shed_by_deadline_sweep": (
            {**small, "max_batch": 8, "prefill_chunk_tokens": 256},
            lambda: make_overload_trace(
                12, cap, overload=2.0, ttft_slo=0.5, e2e_slo=None, seed=0
            ),
            FaultPlan(seed=0, **_CHAOS),
        ),
        "deep_queued_expired_request_is_shed": (
            {"max_batch": 1}, _deep_queue, None,
        ),
        "out_of_order_deadlines_shed_in_deadline_order": (
            {"max_batch": 1}, _anti_ordered_deadlines, None,
        ),
    }


def _outcome(report, reqs):
    """JSON-exact form of a run: floats as hex strings."""
    return {
        "report": {
            k: v.hex() if isinstance(v, float) else v
            for k, v in asdict(report).items()
        },
        "requests": [
            [r.phase.value, r.generated, r.retries,
             r.first_token_time.hex(), r.finish_time.hex()]
            for r in reqs
        ],
    }


def _run(llama8b, name):
    cfg, trace_fn, faults = _scenarios(llama8b)[name]
    engine = ServingEngine(
        llama8b, build_system("comet"), config=EngineConfig(**cfg)
    )
    reqs = trace_fn()
    return engine.run(reqs, faults=faults), reqs


def _golden(name):
    with GOLDENS_PATH.open() as fh:
        return json.load(fh)[name]


def _assert_golden(llama8b, name):
    report, reqs = _run(llama8b, name)
    assert _outcome(report, reqs) == _golden(name)
    return report, reqs


class TestVectorizedParity:
    """The batch-array engine reproduces the scalar oracle's goldens."""

    def test_poisson_trace(self, llama8b):
        _assert_golden(llama8b, "poisson_trace")

    def test_chunked_prefill(self, llama8b):
        _assert_golden(llama8b, "chunked_prefill")

    def test_optimistic_admission_preemptions(self, llama8b):
        report, _ = _assert_golden(
            llama8b, "optimistic_admission_preemptions"
        )
        # The scenario must actually exercise the preemption path.
        assert report.preemptions > 0
        assert report.requests_completed == 10

    def test_fault_chaos(self, llama8b):
        report, _ = _assert_golden(llama8b, "fault_chaos")
        assert report.faults_injected > 0 and report.retries > 0

    def test_slo_overload_shedding(self, llama8b):
        report, _ = _assert_golden(llama8b, "slo_overload_shedding")
        assert report.requests_timed_out > 0

    def test_kitchen_sink(self, llama8b):
        report, _ = _assert_golden(llama8b, "kitchen_sink")
        assert report.faults_injected > 0 and report.requests_timed_out > 0

    def test_retry_backoff_shed_by_deadline_sweep(self, llama8b):
        # Regression: a faulted request in retry backoff stays WAITING and
        # its deadline-heap entry stays live, so the sweep can shed it
        # first; the retry queue must lazily discard the now-terminal
        # entry instead of expiring it a second time (which raised
        # "request N already terminal").
        report, reqs = _assert_golden(
            llama8b, "retry_backoff_shed_by_deadline_sweep"
        )
        # The scenario must actually shed a backed-off retry.
        assert any(
            r.retries > 0 and r.phase is Phase.TIMED_OUT for r in reqs
        )
        assert report.requests_timed_out > 0

    def test_profiler_phases_cover_every_step(self, llama8b):
        engine = ServingEngine(
            llama8b, build_system("comet"),
            config=EngineConfig(max_batch=16),
        )
        prof = StepPhaseProfiler()
        report = engine.run(
            make_poisson_trace(30, arrival_rate=64.0, seed=1), profiler=prof
        )
        assert prof.steps == report.engine_steps > 0
        us = prof.per_step_us()
        assert set(us) == {
            "admit", "schedule", "model", "decode", "heartbeat",
            "total", "overhead",
        }
        assert us["total"] >= us["overhead"] >= 0.0


class TestWaitingQueueExpiry:
    """Regression: expiry must sweep the whole queue, not just its head.

    A request buried behind an unexpired head used to sit in the FIFO past
    its deadline; the deadline heap now sheds it the step its deadline
    passes, regardless of queue position.
    """

    def test_deep_queued_expired_request_is_shed(self, llama8b):
        report, (r0, r1, r2) = _assert_golden(
            llama8b, "deep_queued_expired_request_is_shed"
        )
        assert r2.phase is Phase.TIMED_OUT
        assert r2.generated == 0  # shed from the queue, never admitted
        assert r0.phase is Phase.FINISHED
        assert r1.phase is Phase.FINISHED
        assert report.requests_timed_out == 1
        assert report.requests_completed == 2

    def test_out_of_order_deadlines_shed_in_deadline_order(self, llama8b):
        _, reqs = _assert_golden(
            llama8b, "out_of_order_deadlines_shed_in_deadline_order"
        )
        queued = reqs[1:]
        assert all(r.phase is Phase.TIMED_OUT for r in queued)
        # time_out stamps finish_time with the shed clock: later deadline
        # can never be shed before an earlier one.
        times = [r.finish_time for r in reversed(queued)]
        assert times == sorted(times)


class TestBatchState:
    def _req(self, i, gen=0):
        r = Request(i, prompt_len=8, max_new_tokens=16)
        r.phase = Phase.DECODE
        r.generated = gen
        return r

    def test_add_advance_sync_roundtrip(self):
        state = BatchState()
        reqs = [self._req(i) for i in range(3)]
        for i, r in enumerate(reqs):
            state.add(r, kv_row=i, abort_at=-1)
        assert state.reqs == reqs
        state.advance(np.array([0, 2]))
        assert reqs[0].generated == 0  # arrays lead, objects lag
        for i in range(len(state)):
            state.sync(i)
        assert [r.generated for r in reqs] == [1, 0, 1]

    def test_remove_keeps_alias_and_arrays_consistent(self):
        state = BatchState()
        reqs = [self._req(i) for i in range(4)]
        for i, r in enumerate(reqs):
            state.add(r, kv_row=10 + i, abort_at=-1)
        state.advance(np.array([1]))
        alias = state.reqs
        state.rebuild(np.array([True, False, True, False]))
        assert state.reqs is alias  # compacted in place
        assert [r.request_id for r in state.reqs] == [0, 2]
        assert state.kv_row.tolist() == [10, 12]
        assert state.gen.tolist() == [0, 0]
        state.rebuild(np.array([False, True]))
        assert [r.request_id for r in state.reqs] == [2]
        assert state.kv_row.tolist() == [12]

    def test_grows_past_initial_capacity(self):
        state = BatchState()
        reqs = [self._req(i) for i in range(200)]
        for i, r in enumerate(reqs):
            state.add(r, kv_row=i, abort_at=-1)
        assert len(state.reqs) == 200
        assert int(state.ctx.sum()) == sum(r.context_len for r in reqs)


class TestDeadlineHeap:
    def test_expires_out_of_order_pushes(self):
        heap = DeadlineHeap()
        reqs = [
            Request(i, prompt_len=4, max_new_tokens=4, e2e_slo=slo)
            for i, slo in ((0, 0.5), (1, 0.1), (2, 0.3))
        ]
        for r in reqs:
            heap.push(r)
        expired = heap.expired(0.2)
        assert [r.request_id for r in expired] == [1]
        assert [r.request_id for r in heap.expired(1.0)] == [2, 0]

    def test_skips_requests_without_deadlines(self):
        heap = DeadlineHeap()
        heap.push(Request(0, prompt_len=4, max_new_tokens=4))
        assert len(heap) == 0

    def test_request_pushed_twice_expires_once(self):
        # A preempted request is re-pushed while its admission-time entry
        # is still live; sweeping both at once must not expire it twice.
        heap = DeadlineHeap()
        r = Request(0, prompt_len=4, max_new_tokens=4, ttft_slo=0.1)
        heap.push(r)
        heap.push(r)
        assert heap.expired(1.0) == [r]

    def test_lazy_deletion_of_terminal_entries(self):
        heap = DeadlineHeap()
        r = Request(0, prompt_len=4, max_new_tokens=4, e2e_slo=0.1)
        heap.push(r)
        r.time_out("test", 0.05)
        assert heap.expired(1.0) == []


class TestRetryHeap:
    def test_pops_in_backoff_order(self):
        heap = RetryHeap()
        reqs = []
        for i, nb in ((0, 0.3), (1, 0.1), (2, 0.2)):
            r = Request(i, prompt_len=4, max_new_tokens=4)
            r.not_before = nb
            heap.push(r)
            reqs.append(r)
        assert heap.next_ready_time() == 0.1
        assert heap.pop().request_id == 1
        assert heap.peek().request_id == 2
        assert bool(heap) and len(heap) == 2

    def test_empty(self):
        heap = RetryHeap()
        assert not heap
        assert heap.next_ready_time() == float("inf")


def _regen() -> None:
    """Rewrite engine_goldens.json from the current engine."""
    model = get_model_config("llama-3-8b")
    goldens = {
        name: _outcome(*_run(model, name)) for name in _scenarios(model)
    }
    text = json.dumps(goldens, indent=1, sort_keys=True)
    # One line per request row keeps the file reviewable.
    text = re.sub(
        r"\[\n\s+([^\[\]{}]*?)\n\s+\]",
        lambda m: "[" + re.sub(r",\n\s+", ", ", m.group(1)) + "]",
        text,
    )
    GOLDENS_PATH.write_text(text + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --regen")
    _regen()
