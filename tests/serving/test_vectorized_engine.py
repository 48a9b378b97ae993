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
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.config import get_model_config
from repro.serving.batchstate import (
    _INITIAL_CAPACITY,
    BatchState,
    DeadlineHeap,
    RetryHeap,
)
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.request import Phase, Request, make_batch_requests
from repro.serving.stepprof import StepPhaseProfiler
from repro.serving.systems import build_system
from repro.serving.trace import EngineEvents
from repro.serving.workload import make_overload_trace, make_poisson_trace

GOLDENS_PATH = Path(__file__).with_name("engine_goldens.json")

# A small device keeps the overload scenarios short (the KV pool, not the
# scenario shape, sets the step count).
_SMALL_HBM = 20e9

_TWO_WAVE_HBM = 17e9
_TWO_WAVE_PROMPT, _TWO_WAVE_OUTPUT = 512, 64

#: The Poisson scenario queues above its batch cap while arrivals land
#: mid-decode.  The smallest ``max_steps`` that lets it finish (recorded
#: before decode stepping advanced several steps per loop iteration).
_POISSON_QUEUED = dict(hbm_bytes=_SMALL_HBM, max_batch=8)
_POISSON_QUEUED_MAX_STEPS = 625

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


def _two_wave_batch(llama8b):
    # Fig. 10's shape: a uniform batch of the planner's max size, all at
    # t=0.  The KV commit slack keeps the queue head out, so the tail of
    # the batch runs as a second wave once the first one drains.
    eng = ServingEngine(
        llama8b, build_system("comet"),
        config=EngineConfig(hbm_bytes=_TWO_WAVE_HBM),
    )
    n = eng.plan.max_batch(_TWO_WAVE_PROMPT + _TWO_WAVE_OUTPUT)
    return lambda: make_batch_requests(n, _TWO_WAVE_PROMPT, _TWO_WAVE_OUTPUT)


def _staggered_lengths():
    # Every row crosses block boundaries and finishes on its own step.
    return [
        Request(i, prompt_len=37 + 29 * i, max_new_tokens=40 + 17 * i)
        for i in range(12)
    ]


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


def _admission_pass_edges():
    # Optimistic admission on a 711-block pool, batch cap 5.  Request ids
    # pick the first attempts a FaultPlan(seed=0, request_abort_rate=0.5)
    # aborts: 6 at its 2nd token, 0 at its 3rd; the others run clean.
    return [
        Request(1, prompt_len=512, max_new_tokens=40),
        Request(3, prompt_len=11376, max_new_tokens=8),  # > the pool
        Request(4, prompt_len=512, max_new_tokens=40, arrival_time=0.005),
        Request(5, prompt_len=256, max_new_tokens=40, arrival_time=0.006,
                ttft_slo=0.02),
        Request(7, prompt_len=6000, max_new_tokens=8, arrival_time=0.007),
        Request(8, prompt_len=4352, max_new_tokens=8, arrival_time=0.008),
        Request(6, prompt_len=512, max_new_tokens=8, arrival_time=0.009),
        Request(0, prompt_len=512, max_new_tokens=8, arrival_time=0.009),
        Request(11, prompt_len=256, max_new_tokens=8, arrival_time=0.01),
        Request(12, prompt_len=128, max_new_tokens=8, arrival_time=0.51),
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
        "two_wave_uniform_batch": (
            {"hbm_bytes": _TWO_WAVE_HBM, "max_batch": 1024},
            _two_wave_batch(llama8b),
            None,
        ),
        "staggered_lengths": (
            {**small, "max_batch": 16}, _staggered_lengths, None,
        ),
        "poisson_above_max_batch": (
            _POISSON_QUEUED,
            lambda: make_poisson_trace(
                40, arrival_rate=48.0, mean_new_tokens=96, seed=8
            ),
            None,
        ),
        "tensor_parallel_2": (
            {**small, "max_batch": 16, "tensor_parallel": 2},
            lambda: make_poisson_trace(30, arrival_rate=32.0, seed=2),
            None,
        ),
        "deep_queued_expired_request_is_shed": (
            {"max_batch": 1}, _deep_queue, None,
        ),
        "out_of_order_deadlines_shed_in_deadline_order": (
            {"max_batch": 1}, _anti_ordered_deadlines, None,
        ),
        # Whole-prompt admission passes that cross every rule of a pass
        # (test_admission_pass_edges).
        "admission_pass_edges": (
            {"hbm_bytes": 4.8e9, "max_batch": 5,
             "reserve_full_sequence": False},
            _admission_pass_edges,
            FaultPlan(seed=0, request_abort_rate=0.5),
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

    def test_two_wave_uniform_batch(self, llama8b):
        report, reqs = _assert_golden(llama8b, "two_wave_uniform_batch")
        # The commit slack held the queue head back for a second wave.
        assert report.peak_batch < len(reqs) == report.requests_completed
        assert len({r.first_token_time for r in reqs}) == 2

    def test_staggered_lengths(self, llama8b):
        _, reqs = _assert_golden(llama8b, "staggered_lengths")
        assert len({r.finish_time for r in reqs}) == len(reqs)

    def test_poisson_above_max_batch(self, llama8b):
        report, _ = _assert_golden(llama8b, "poisson_above_max_batch")
        assert report.peak_batch == _POISSON_QUEUED["max_batch"]

    def test_tensor_parallel_2(self, llama8b):
        _assert_golden(llama8b, "tensor_parallel_2")

    def test_max_steps_raise_point(self, llama8b):
        # max_steps budgets simulated steps, not loop iterations: the run
        # needs the same budget however many steps one iteration covers.
        _, trace_fn, _ = _scenarios(llama8b)["poisson_above_max_batch"]

        def run(max_steps):
            engine = ServingEngine(
                llama8b, build_system("comet"),
                config=EngineConfig(max_steps=max_steps, **_POISSON_QUEUED),
            )
            return engine.run(trace_fn())

        assert run(_POISSON_QUEUED_MAX_STEPS).requests_completed == 40
        with pytest.raises(RuntimeError, match="max_steps"):
            run(_POISSON_QUEUED_MAX_STEPS - 1)

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


class _PassLog(EngineEvents):
    """The admission passes of a run: the admit, reject and timeout events
    between two batch steps, as ``(event, request id, clock)``, and the
    pool's free blocks when each pass ended."""

    def __init__(self, kv):
        self.kv = kv
        self.passes = [[]]
        self.free_after = []

    def admit(self, req, clock):
        self.passes[-1].append(("admit", req.request_id, clock))

    def reject(self, req, clock):
        self.passes[-1].append(("reject", req.request_id, clock))

    def timeout(self, req, clock):
        self.passes[-1].append(("timeout", req.request_id, clock))

    def step_cost(self, step):
        if not step.serialized and self.passes[-1]:
            self.free_after.append(self.kv.free_blocks)
            self.passes.append([])


def test_admission_pass_edges(llama8b):
    """The scenario crosses every rule of a whole-prompt admission pass,
    and matches its golden."""
    cfg, trace_fn, faults = _scenarios(llama8b)["admission_pass_edges"]
    engine = ServingEngine(
        llama8b, build_system("comet"), config=EngineConfig(**cfg)
    )
    log = _PassLog(engine.kv)
    reqs = trace_fn()
    report = engine.run(reqs, sink=log, faults=faults)
    assert _outcome(report, reqs) == _golden("admission_pass_edges")
    r = {req.request_id: req for req in reqs}
    passes = [p for p in log.passes if p]
    assert [[(what, i) for what, i, _ in p] for p in passes] == [
        [("admit", 1), ("reject", 3), ("admit", 4), ("timeout", 5),
         ("admit", 7)],
        [("admit", 8), ("admit", 0), ("admit", 6)],
        [("admit", 11)],
        [("admit", 12)],
        [("admit", 6), ("admit", 0)],  # the retries
    ]
    starts = [p[0][2] for p in passes]
    clock = {(n, i): c for n, p in enumerate(passes) for _, i, c in p}
    # Pass 0: request 4 arrives during request 1's prefill; 3 can never
    # fit and 5's TTFT lapses during 4's prefill, both between admissions;
    # 8 fits the free blocks exactly, but not with the growth block of
    # headroom optimistic admission asks for.
    assert starts[0] < r[4].arrival_time <= clock[0, 4]
    assert r[3].prompt_len + engine.kv.block_tokens > engine.kv.token_capacity
    assert starts[0] < r[5].ttft_deadline < clock[0, 7]
    assert engine.kv.blocks_needed(r[8].prompt_len) == log.free_after[0]
    # Pass 1 fills the batch cap with request 11 waiting.
    assert r[11].arrival_time < starts[1]
    assert report.peak_batch == cfg["max_batch"]
    # Request 6's retry falls due during arrival 12's prefill and waits
    # for the next pass; 0's falls due during 6's and joins that pass.
    prefill_12 = engine.step_time(prompt_len=r[12].prompt_len)[4]
    assert starts[3] < r[6].not_before <= starts[3] + prefill_12
    assert starts[4] < r[0].not_before <= clock[4, 0]
    assert r[0].retries == r[6].retries == 1


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

    def test_advance_by_k_equals_k_single_steps(self):
        many, single = BatchState(), BatchState()
        for state in (many, single):
            for i in range(4):
                state.add(self._req(i, gen=i), kv_row=i, abort_at=-1)
        idx = np.array([0, 2, 3])
        many.advance(idx, 5)
        for _ in range(5):
            single.advance(idx)
        assert many.gen.tolist() == single.gen.tolist() == [5, 1, 7, 8]
        assert many.ctx.tolist() == single.ctx.tolist()
        assert many.ctx.tolist() == [8 + 0 + 5, 8 + 1, 8 + 2 + 5, 8 + 3 + 5]

    def test_horizon_stops_at_first_event(self):
        state = BatchState()
        for i, (gen, abort_at) in enumerate(((3, -1), (9, -1), (5, 12))):
            state.add(self._req(i, gen=gen), kv_row=i, abort_at=abort_at)
        # max_new_tokens 16: row 1 finishes after 7 more steps, first.
        assert state.horizon() == 7
        state.rebuild(np.array([True, False, True]))
        # Row 2's abort at 12 (7 steps away) beats row 0's finish (13).
        assert state.horizon() == 7
        state.advance(np.arange(2), 2)
        assert state.horizon() == 5
        # A row still waiting for its first token holds the horizon at 1.
        state.add(self._req(3), kv_row=3, abort_at=-1)
        assert state.horizon() == 1

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

    def test_add_many_equals_successive_adds(self):
        # Rows of every kind (decoding or prefilling, with or without a
        # first token, deadlines and a scheduled abort), added across a
        # capacity doubling.
        def reqs():
            out = []
            for i in range(_INITIAL_CAPACITY + 40):
                r = Request(i, prompt_len=8 + i, max_new_tokens=16,
                            arrival_time=0.01 * i,
                            ttft_slo=0.5 if i % 3 else None,
                            e2e_slo=2.0 if i % 5 else None)
                r.phase = Phase.DECODE if i % 2 else Phase.PREFILL
                r.generated = i % 4 if r.phase is Phase.DECODE else 0
                r.prefill_progress = i % 7
                out.append(r)
            return out

        one, many = BatchState(), BatchState()
        a, b = reqs(), reqs()
        aborts = [(-1, 3, 9)[i % 3] for i in range(len(a))]
        rows = [100 + 2 * i for i in range(len(a))]
        for r, row, abort_at in zip(a, rows, aborts):
            one.add(r, row, abort_at)
        cut = _INITIAL_CAPACITY - 10
        many.add_many(b[:cut], rows[:cut], aborts[:cut])
        many.add_many(b[cut:], rows[cut:], aborts[cut:])
        assert [r.request_id for r in many.reqs] == [r.request_id for r in a]
        for column in ("decoding", "ctx", "gen", "kv_row", "abort_at",
                       "event", "e2e_dl", "ttft_dl"):
            np.testing.assert_array_equal(
                getattr(many, column), getattr(one, column), err_msg=column
            )
        assert many._decoding.size == one._decoding.size
        assert many.horizon() == one.horizon()

    def test_grows_past_initial_capacity(self):
        state = BatchState()
        reqs = [self._req(i) for i in range(200)]
        for i, r in enumerate(reqs):
            state.add(r, kv_row=i, abort_at=-1)
        assert len(state.reqs) == 200
        assert int(state.ctx.sum()) == sum(r.context_len for r in reqs)


def _steps_to_event(row: dict) -> int:
    """Decode steps until a row's next lifecycle event, one token at a
    time: its first token, its scheduled abort or its finish."""
    t = 1
    while not _at_event(row, row["gen"] + t):
        t += 1
    return t


def _at_event(row: dict, gen: int) -> bool:
    """The engine's per-step lifecycle test for a row at ``gen``."""
    return gen == 1 or gen >= row["max_new"] or gen == row["abort_at"]


class TestBatchStateProperty:
    """:class:`BatchState` against a plain per-row reference, over runs of
    the operations the engine performs on it: admissions (in bulk, past the
    initial capacity), prefill progress and completion, single-row and
    whole-batch advances (``k`` up to the horizon), lifecycle settles
    (first tokens, aborts, finishes) and arbitrary row drops (preemption,
    faults, expiry)."""

    COLUMNS = ("ctx", "gen", "decoding", "e2e_dl", "ttft_dl", "kv_row",
               "abort_at")

    @staticmethod
    def _check(state: BatchState, ref: list[dict], alias: list) -> None:
        assert state.reqs is alias
        assert len(state) == len(ref)
        assert [r.request_id for r in state.reqs] == [
            row["req"].request_id for row in ref
        ]
        for name in TestBatchStateProperty.COLUMNS:
            assert getattr(state, name).tolist() == [row[name] for row in ref], name
        if ref:
            assert state.horizon() == min(_steps_to_event(row) for row in ref)

    @staticmethod
    def _settle(state: BatchState, ref: list[dict], advanced: list[int]) -> None:
        """The engine's settle pass after an advance: the rows at their
        next event (``gen == event``) are exactly those the per-row
        lifecycle test picks among the advanced rows; each syncs, an abort
        or a finish drops it, and a row that lives on moves its event."""
        events = state.at_event().tolist()
        assert events == [i for i in advanced if _at_event(ref[i], ref[i]["gen"])]
        keep = np.ones(len(ref), dtype=bool)
        for i in events:
            row = ref[i]
            assert state.sync(i).generated == row["gen"]
            if row["gen"] == row["abort_at"] or row["gen"] >= row["max_new"]:
                keep[i] = False
            else:
                state.next_event(i, row["max_new"], row["abort_at"])
        if not keep.all():
            state.rebuild(keep)
            ref[:] = [row for row, k in zip(ref, keep) if k]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_row_reference(self, data):
        state = BatchState()
        alias = state.reqs
        ref: list[dict] = []
        ids = count()
        for _ in range(data.draw(st.integers(1, 25), label="ops")):
            op = data.draw(st.sampled_from(
                ("add", "add", "advance_all", "advance_decoding",
                 "advance_one", "progress", "prefill_done", "drop")
            ))
            decoding = [i for i, row in enumerate(ref) if row["decoding"]]
            prefilling = [i for i, row in enumerate(ref) if not row["decoding"]]
            if op == "add":
                for _ in range(data.draw(st.integers(1, 2 * _INITIAL_CAPACITY))):
                    max_new = data.draw(st.integers(1, 12))
                    req = Request(
                        next(ids), prompt_len=data.draw(st.integers(1, 40)),
                        max_new_tokens=max_new,
                        ttft_slo=data.draw(st.none() | st.floats(0.1, 5.0)),
                        e2e_slo=data.draw(st.none() | st.floats(0.1, 5.0)),
                    )
                    req.phase = data.draw(st.sampled_from(
                        (Phase.PREFILL, Phase.DECODE)
                    ))
                    if req.phase is Phase.DECODE:
                        req.prefill_progress = req.prompt_len
                    abort_at = data.draw(
                        st.just(-1) | st.integers(1, max_new), label="abort_at"
                    )
                    kv_row = data.draw(st.integers(0, 10_000))
                    state.add(req, kv_row, abort_at)
                    ref.append(dict(
                        req=req, ctx=req.context_len, gen=0, max_new=max_new,
                        decoding=req.phase is Phase.DECODE,
                        e2e_dl=req.e2e_deadline, ttft_dl=req.ttft_deadline,
                        kv_row=kv_row, abort_at=abort_at,
                    ))
            elif op == "advance_all" and ref and not prefilling:
                # Whole-batch advance by k, up to the horizon.
                k = data.draw(st.integers(1, state.horizon()))
                state.advance(np.flatnonzero(state.decoding), k)
                for row in ref:
                    row["ctx"] += k
                    row["gen"] += k
                self._settle(state, ref, list(range(len(ref))))
            elif op == "advance_decoding" and decoding:
                state.advance(np.array(decoding))
                for i in decoding:
                    ref[i]["ctx"] += 1
                    ref[i]["gen"] += 1
                self._settle(state, ref, decoding)
            elif op == "advance_one" and decoding:
                i = data.draw(st.sampled_from(decoding))
                state.advance(i)
                ref[i]["ctx"] += 1
                ref[i]["gen"] += 1
                self._settle(state, ref, [i])
            elif op == "progress" and prefilling:
                i = data.draw(st.sampled_from(prefilling))
                req = ref[i]["req"]
                req.prefill_progress = data.draw(
                    st.integers(req.prefill_progress, req.prompt_len - 1)
                    if req.prefill_progress < req.prompt_len
                    else st.just(req.prefill_progress)
                )
                state.set_prefill_progress(i, req.prefill_progress)
                ref[i]["ctx"] = req.prefill_progress
            elif op == "prefill_done" and prefilling:
                i = data.draw(st.sampled_from(prefilling))
                req = ref[i]["req"]
                req.prefill_progress = req.prompt_len
                req.phase = Phase.DECODE
                state.mark_decode(i)
                ref[i]["decoding"] = True
                ref[i]["ctx"] = req.context_len
            elif op == "drop" and ref:
                keep = np.array(data.draw(st.lists(
                    st.booleans(), min_size=len(ref), max_size=len(ref)
                )))
                state.rebuild(keep)
                ref[:] = [row for row, k in zip(ref, keep) if k]
            self._check(state, ref, alias)


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
