"""Tests for the fault-injection harness and chaos-mode engine runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.model.config import get_model_config, tiny_config
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultKind, FaultPlan, StepFault, _raw_outputs
from repro.serving.request import (
    TERMINAL_PHASES,
    Phase,
    Request,
    make_batch_requests,
)
from repro.serving.scheduler import RETRY_BACKOFF
from repro.serving.systems import build_system
from repro.serving.trace import EngineEvents
from repro.serving.workload import make_overload_trace


def engine(**cfg):
    return ServingEngine(
        get_model_config("llama-3-8b"), build_system("comet"),
        config=EngineConfig(**cfg),
    )


CHAOS = FaultPlan(
    seed=7,
    step_fault_rate=0.12,
    kv_loss_rate=0.02,
    straggler_rate=0.05,
    request_abort_rate=0.1,
)


def _sim_instants(eng, reqs, faults):
    """Run with telemetry on: the report and the lifecycle instants on the
    obs simulated timeline."""
    _, spans = obs.enable()
    try:
        report = eng.run(reqs, faults=faults)
    finally:
        obs.disable()
    return report, [r for r in spans.records if r.domain == "sim" and r.instant]


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(step_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(kv_loss_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=0.5)
        # Seeds outside [0, 2**32) fail here, not at the first draw in the
        # middle of an engine run.
        for seed in (-1, 2**32):
            with pytest.raises(ValueError, match="seed"):
                FaultPlan(seed=seed)
        FaultPlan(seed=2**32 - 1)

    def test_draw_domain_validation(self):
        plan = FaultPlan(seed=1, request_abort_rate=0.5)
        for ids, budgets in (
            ([-1], [10]), ([2**64], [10]), ([1.5], [10]),
            ([1], [0]), ([1], [2**32]), ([1, 2], [10]),
        ):
            with pytest.raises(ValueError):
                plan.request_abort_points(ids, budgets)
        with pytest.raises(ValueError):
            plan.step_faults(-1, 4)
        with pytest.raises(ValueError):
            plan.step_faults(2**64 - 2, 4)
        assert plan.request_abort_points([], []).size == 0

    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(step_fault_rate=0.01).empty
        assert not FaultPlan(request_abort_rate=0.01).empty

    def test_step_faults_deterministic(self):
        a = [CHAOS.step_fault(i) for i in range(300)]
        b = [CHAOS.step_fault(i) for i in range(300)]
        assert a == b

    def test_step_faults_independent_of_order(self):
        forward = [CHAOS.step_fault(i) for i in range(100)]
        backward = [CHAOS.step_fault(i) for i in reversed(range(100))]
        assert forward == list(reversed(backward))

    def test_seed_changes_sequence(self):
        other = FaultPlan(
            seed=8, step_fault_rate=0.12, kv_loss_rate=0.02,
            straggler_rate=0.05, request_abort_rate=0.1,
        )
        a = [CHAOS.step_fault(i) for i in range(300)]
        b = [other.step_fault(i) for i in range(300)]
        assert a != b

    def test_step_fault_rate_roughly_respected(self):
        n = 2000
        faults = [CHAOS.step_fault(i) for i in range(n)]
        kernel = sum(
            1 for f in faults if f and f.kind is FaultKind.KERNEL_FAULT
        )
        assert 0.08 < kernel / n < 0.16

    def test_empty_plan_never_fires(self):
        assert all(FaultPlan().step_fault(i) is None for i in range(200))
        assert FaultPlan().request_abort_point(3, 100) is None

    def test_request_abort_point(self):
        plan = FaultPlan(seed=1, request_abort_rate=1.0)
        points = [plan.request_abort_point(i, 50) for i in range(50)]
        assert all(p is not None and 1 <= p <= 50 for p in points)
        assert points == [plan.request_abort_point(i, 50) for i in range(50)]

    def test_straggler_carries_slowdown(self):
        plan = FaultPlan(seed=0, straggler_rate=1.0, straggler_slowdown=3.0)
        fault = plan.step_fault(0)
        assert fault.kind is FaultKind.STRAGGLER
        assert fault.slowdown == 3.0


SEEDS = st.integers(0, 2**32 - 1)
#: Ids below and above 2**32 (one and two 32-bit entropy words).
IDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))
#: Output budgets; at n >= 2**31 about half the Lemire draws are rejected.
BUDGETS = st.one_of(st.integers(1, 5_000), st.integers(2**31, 2**32 - 1))


class TestNumpyStream:
    """Every draw is numpy's ``default_rng([seed, stream, index])`` stream,
    bit for bit.  A rate equal to the reference double ``u`` must not fire
    (``u < u`` is false) and the next double up must, which pins ``u``
    exactly."""

    @given(seed=SEEDS, step=IDS)
    @settings(max_examples=150, deadline=None)
    def test_step_fault_matches_numpy(self, seed, step):
        ref = np.random.default_rng([seed, 1, step])
        u, victim = ref.random(), ref.random()
        assert FaultPlan(seed=seed, kv_loss_rate=u).step_fault(step) is None
        above = FaultPlan(seed=seed, kv_loss_rate=np.nextafter(u, 1.0))
        assert above.step_fault(step) == StepFault(
            FaultKind.KV_LOSS, victim_draw=victim
        )

    @given(seed=SEEDS, request_id=IDS, n=BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_request_abort_point_matches_numpy(self, seed, request_id, n):
        ref = np.random.default_rng([seed, 2, request_id])
        u = ref.random()
        point = int(ref.integers(1, n + 1))
        at = FaultPlan(seed=seed, request_abort_rate=u)
        assert at.request_abort_point(request_id, n) is None
        above = FaultPlan(seed=seed, request_abort_rate=np.nextafter(u, 1.0))
        assert above.request_abort_point(request_id, n) == point

    @given(seed=SEEDS, stream=SEEDS, index=IDS)
    @settings(max_examples=100, deadline=None)
    def test_raw_outputs_match_numpy(self, seed, stream, index):
        ref = np.random.default_rng([seed, stream, index])
        got = _raw_outputs(seed, stream, np.array([index], np.uint64), 4)
        assert got[:, 0].tolist() == ref.bit_generator.random_raw(4).tolist()

    @given(
        seed=SEEDS,
        start=st.one_of(st.integers(0, 10_000), st.integers(2**32 - 8, 2**64 - 65)),
        count=st.integers(0, 64),
        rates=st.lists(st.floats(0.0, 0.4), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_faults_equal_scalar_calls(self, seed, start, count, rates):
        plan = FaultPlan(
            seed=seed, step_fault_rate=rates[0], kv_loss_rate=rates[1],
            straggler_rate=rates[2],
        )
        assert plan.step_faults(start, count) == [
            plan.step_fault(start + j) for j in range(count)
        ]

    @given(
        seed=SEEDS,
        rows=st.lists(st.tuples(IDS, BUDGETS), max_size=40),
        rate=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_request_abort_points_equal_scalar_calls(self, seed, rows, rate):
        plan = FaultPlan(seed=seed, request_abort_rate=rate)
        ids, budgets = [i for i, _ in rows], [n for _, n in rows]
        points = plan.request_abort_points(
            np.array(ids, np.uint64), np.array(budgets, np.int64)
        )
        scalar = [plan.request_abort_point(i, n) for i, n in rows]
        assert points.tolist() == [-1 if p is None else p for p in scalar]

    def test_lemire_rejections_in_array_form(self):
        """At n = 2**31 + 1 about half of each round's words are rejected,
        so rows need several rounds; every row still matches numpy."""
        n = 2**31 + 1
        ids = list(range(2**40, 2**40 + 400))
        points = FaultPlan(seed=11, request_abort_rate=1.0).request_abort_points(
            ids, [n] * len(ids)
        )
        ref = []
        for i in ids:
            rng = np.random.default_rng([11, 2, i])
            rng.random()
            ref.append(int(rng.integers(1, n + 1)))
        assert points.tolist() == ref


class TestChaosRuns:
    """The acceptance scenario: >=10% step faults plus overload."""

    def _chaos_run(self, **cfg):
        eng = engine(
            max_batch=32, hbm_bytes=20e9, prefill_chunk_tokens=256,
            max_retries=3, **cfg,
        )
        reqs = make_overload_trace(
            40, eng.kv.token_capacity, overload=2.0, seed=1
        )
        rep = eng.run(reqs, faults=CHAOS)
        return eng, reqs, rep

    def test_completes_without_raising_and_all_terminal(self):
        eng, reqs, rep = self._chaos_run()
        assert all(r.phase in TERMINAL_PHASES for r in reqs)
        assert rep.faults_injected > 0
        assert eng.kv.free_blocks == eng.kv.num_blocks

    def test_report_accounts_every_request(self):
        _, reqs, rep = self._chaos_run()
        assert (
            rep.requests_completed
            + rep.requests_failed
            + rep.requests_rejected
            + rep.requests_timed_out
            == len(reqs)
        )

    def test_output_tokens_conserved(self):
        """Tokens counted by the engine match tokens held by requests."""
        _, reqs, rep = self._chaos_run()
        assert rep.output_tokens == sum(r.generated for r in reqs)
        assert rep.good_output_tokens <= rep.output_tokens

    def test_optimistic_admission_chaos(self):
        eng, reqs, rep = self._chaos_run(reserve_full_sequence=False)
        assert all(r.phase in TERMINAL_PHASES for r in reqs)
        assert rep.output_tokens == sum(r.generated for r in reqs)
        assert eng.kv.free_blocks == eng.kv.num_blocks

    def test_chaos_run_is_deterministic(self):
        _, _, a = self._chaos_run()
        _, _, b = self._chaos_run()
        assert a == b

    def test_retries_are_bounded(self):
        _, reqs, rep = self._chaos_run()
        assert all(r.retries <= 3 + 1 for r in reqs)  # budget + final fail
        failed = [r for r in reqs if r.phase is Phase.FAILED]
        assert all(r.failure_reason for r in failed)

    def test_tracer_records_fault_events(self):
        eng = engine(max_batch=8, hbm_bytes=20e9, max_retries=1)
        reqs = make_batch_requests(8, 128, 32)
        _, records = _sim_instants(
            eng, reqs, FaultPlan(seed=0, step_fault_rate=0.3)
        )
        assert "serving.fault" in {r.name for r in records}

    def test_trace_instants_match_report_counts(self):
        """Every counted fault (request aborts included), failure, retry,
        rejection and timeout leaves exactly one chrome-trace instant."""
        eng = ServingEngine(
            tiny_config(), build_system("comet"),
            config=EngineConfig(max_batch=8, hbm_bytes=1e6, max_retries=1),
        )
        reqs = make_overload_trace(
            60, eng.kv.token_capacity, overload=2.0, burst_seconds=0.01,
            e2e_slo=0.08, seed=1,
        )
        # Can never fit the commit capacity: rejected at admission.
        reqs.append(
            Request(len(reqs), prompt_len=eng.kv.token_capacity,
                    max_new_tokens=1)
        )
        rep, records = _sim_instants(eng, reqs, FaultPlan(
            seed=3, step_fault_rate=0.05, kv_loss_rate=0.4,
            request_abort_rate=0.5,
        ))
        names = [r.name for r in records]
        counts = {
            "serving.fault": rep.faults_injected,
            "serving.request.failed": rep.requests_failed,
            "serving.request.retry": rep.retries,
            "serving.request.rejected": rep.requests_rejected,
            "serving.request.timed_out": rep.requests_timed_out,
        }
        assert all(counts.values()), counts  # every kind is exercised
        assert {k: names.count(k) for k in counts} == counts
        aborts = [
            r for r in records
            if r.name == "serving.fault" and r.attrs["kind"] == "request_abort"
        ]
        assert aborts and all("request_id" in r.attrs for r in aborts)


class TestFaultEffects:
    def _run(self, plan, **cfg):
        eng = engine(max_batch=8, **cfg)
        reqs = make_batch_requests(8, 128, 32)
        return eng.run(reqs, faults=plan), reqs

    def test_empty_plan_bit_identical_to_no_plan(self):
        clean, _ = self._run(None)
        empty, _ = self._run(FaultPlan())
        assert clean == empty

    def test_kernel_faults_waste_time_not_tokens(self):
        clean, _ = self._run(None)
        faulty, reqs = self._run(FaultPlan(seed=0, step_fault_rate=0.3))
        assert faulty.output_tokens == clean.output_tokens
        assert faulty.sim_seconds > clean.sim_seconds
        assert all(r.phase is Phase.FINISHED for r in reqs)

    def test_stragglers_stretch_the_run(self):
        clean, _ = self._run(None)
        slow, reqs = self._run(
            FaultPlan(seed=0, straggler_rate=0.5, straggler_slowdown=4.0)
        )
        assert slow.sim_seconds > 1.5 * clean.sim_seconds
        assert all(r.phase is Phase.FINISHED for r in reqs)

    def test_request_aborts_retry_then_finish(self):
        plan = FaultPlan(seed=0, request_abort_rate=1.0)
        rep, reqs = self._run(plan, max_retries=2)
        assert all(r.phase is Phase.FINISHED for r in reqs)
        assert rep.retries == len(reqs)  # every first attempt aborted once
        assert rep.faults_injected >= len(reqs)

    def test_request_aborts_fail_without_budget(self):
        plan = FaultPlan(seed=0, request_abort_rate=1.0)
        rep, reqs = self._run(plan, max_retries=0)
        assert all(r.phase is Phase.FAILED for r in reqs)
        assert rep.requests_failed == len(reqs)
        assert rep.output_tokens == 0

    def test_retry_backoff_is_exponential(self):
        class RetryClocks(EngineEvents):
            def __init__(self):
                self.seen = []

            def retry(self, req, clock, reason):
                self.seen.append((clock, req.retries, req.not_before))

        sink = RetryClocks()
        eng = engine(max_batch=8, max_retries=8)
        reqs = make_batch_requests(12, 64, 32)
        eng.run(reqs, faults=FaultPlan(seed=3, kv_loss_rate=0.2), sink=sink)
        # The n-th retry waits RETRY_BACKOFF * 2**(n-1) past its fault.
        assert sink.seen
        assert max(n for _, n, _ in sink.seen) >= 2
        for clock, n, not_before in sink.seen:
            assert not_before == clock + RETRY_BACKOFF * 2 ** (n - 1)

    def test_kv_loss_requeues_victims(self):
        plan = FaultPlan(seed=3, kv_loss_rate=0.2)
        rep, reqs = self._run(plan, max_retries=8)
        assert all(r.phase in TERMINAL_PHASES for r in reqs)
        assert rep.retries > 0
        assert rep.output_tokens == sum(r.generated for r in reqs)
