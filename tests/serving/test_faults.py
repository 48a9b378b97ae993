"""Tests for the fault-injection harness and chaos-mode engine runs."""

import pytest

from repro.model.config import get_model_config, tiny_config
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultKind, FaultPlan
from repro.serving.request import (
    TERMINAL_PHASES,
    Phase,
    Request,
    make_batch_requests,
)
from repro.serving.systems import build_system
from repro.serving.trace import EngineTracer
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


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(step_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(kv_loss_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=0.5)

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
        tracer = EngineTracer()
        eng.run(
            reqs,
            tracer=tracer,
            faults=FaultPlan(seed=0, step_fault_rate=0.3),
        )
        kinds = {e.cat for e in tracer.events()}
        assert "fault" in kinds

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
        tracer = EngineTracer()
        rep = eng.run(reqs, tracer=tracer, faults=FaultPlan(
            seed=3, step_fault_rate=0.05, kv_loss_rate=0.4,
            request_abort_rate=0.5,
        ))
        kinds = [e.cat for e in tracer.events()]
        counts = {
            "fault": rep.faults_injected,
            "failed": rep.requests_failed,
            "retry": rep.retries,
            "rejected": rep.requests_rejected,
            "timed_out": rep.requests_timed_out,
        }
        assert all(counts.values()), counts  # every kind is exercised
        assert {k: kinds.count(k) for k in counts} == counts
        aborts = [
            e for e in tracer.events()
            if e.cat == "fault" and e.attrs["kind"] == "request_abort"
        ]
        assert aborts and all("request_id" in e.attrs for e in aborts)


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
        eng = engine(max_batch=4, max_retries=2, retry_backoff=0.1)
        reqs = make_batch_requests(4, 64, 16)
        eng.run(reqs, faults=FaultPlan(seed=0, request_abort_rate=1.0))
        assert all(r.phase is Phase.FINISHED for r in reqs)
        # Each request backed off once (first attempt aborts, second runs
        # clean), so not_before was set 0.1 s past some failure instant.
        assert all(r.not_before > 0.0 for r in reqs)

    def test_kv_loss_requeues_victims(self):
        plan = FaultPlan(seed=3, kv_loss_rate=0.2)
        rep, reqs = self._run(plan, max_retries=8)
        assert all(r.phase in TERMINAL_PHASES for r in reqs)
        assert rep.retries > 0
        assert rep.output_tokens == sum(r.generated for r in reqs)
