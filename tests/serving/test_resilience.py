"""Resilience-layer tests: lifecycle hardening, deadlines/SLOs, load
shedding, graceful degradation, and lifecycle invariants under chaos
(hypothesis property tests)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.model.config import get_model_config
from repro.obs.registry import MetricsRegistry
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.request import (
    TERMINAL_PHASES,
    Phase,
    Request,
    make_batch_requests,
)
from repro.serving.scheduler import (
    DEGRADE_PRESSURE,
    DEGRADE_WINDOW,
    KV_CAPACITY_SLACK,
    Scheduler,
)
from repro.serving.systems import build_system
from repro.serving.trace import STEP_SPAN_CAT, EngineEvents
from repro.serving.workload import make_overload_trace, make_poisson_trace


def engine(system="comet", **cfg):
    return ServingEngine(
        get_model_config("llama-3-8b"), build_system(system),
        config=EngineConfig(**cfg),
    )


class TestRequestLifecycle:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            Request(0, 8, 8, ttft_slo=0.0)
        with pytest.raises(ValueError):
            Request(0, 8, 8, e2e_slo=-1.0)

    def test_terminal_transitions(self):
        r = Request(0, 8, 8)
        r.fail("boom", 1.0)
        assert r.phase is Phase.FAILED
        assert r.is_terminal
        assert r.failure_reason == "boom"
        assert r.finish_time == 1.0
        with pytest.raises(RuntimeError):
            r.reject("again", 2.0)

    def test_deadlines_default_to_inf(self):
        r = Request(0, 8, 8)
        assert r.ttft_deadline == float("inf")
        assert r.e2e_deadline == float("inf")
        r2 = Request(1, 8, 8, arrival_time=1.0, ttft_slo=0.5, e2e_slo=2.0)
        assert r2.ttft_deadline == 1.5
        assert r2.e2e_deadline == 3.0

    def test_preempt_mid_prefill(self):
        """Regression: a chunked-prefill victim used to crash preempt()."""
        r = Request(0, prompt_len=100, max_new_tokens=8)
        r.phase = Phase.PREFILL
        r.prefill_progress = 64
        lost = r.preempt()
        assert lost == 0
        assert r.phase is Phase.WAITING
        assert r.prefill_progress == 0
        assert r.preemptions == 1

    def test_preempt_still_rejects_waiting_and_terminal(self):
        r = Request(0, 8, 8)
        with pytest.raises(RuntimeError):
            r.preempt()
        r.fail("x", 0.0)
        with pytest.raises(RuntimeError):
            r.preempt()

    def test_reset_for_retry_counts_attempts(self):
        r = Request(0, 8, 4)
        r.phase = Phase.DECODE
        r.advance()
        lost = r.reset_for_retry()
        assert lost == 1
        assert r.retries == 1
        assert r.generated == 0
        assert r.preemptions == 0

    def test_slo_met(self):
        r = Request(0, 8, 2, ttft_slo=1.0, e2e_slo=5.0)
        r.phase = Phase.DECODE
        r.advance()
        r.advance()
        r.first_token_time = 0.5
        r.finish_time = 2.0
        assert r.slo_met
        r2 = Request(1, 8, 2, ttft_slo=1.0)
        r2.phase = Phase.DECODE
        r2.advance()
        r2.advance()
        r2.first_token_time = 3.0
        assert not r2.slo_met


class TestConfigValidation:
    def test_capacity_slack_bounds(self):
        # The slack is a share of the pool in (0, 1], and the scheduler's
        # commit capacity is exactly that share of the pool's tokens.
        assert 0.0 < KV_CAPACITY_SLACK <= 1.0
        eng = engine(max_batch=4, hbm_bytes=20e9)
        sched = Scheduler(eng.config, eng.kv, [])
        assert sched.capacity == int(eng.kv.token_capacity * KV_CAPACITY_SLACK)
        assert 0 < sched.capacity <= eng.kv.token_capacity

    def test_retry_knobs(self):
        with pytest.raises(ValueError):
            EngineConfig(max_retries=-1)

    def test_degradation_knobs(self):
        # Usage at exactly DEGRADE_PRESSURE is hot: DEGRADE_WINDOW such
        # steps in a row halve the batch cap, and as many steps just below
        # it double the cap back.
        eng = engine(max_batch=64, degrade_under_pressure=True)
        sched = Scheduler(eng.config, eng.kv, [])
        cool = DEGRADE_PRESSURE - 1e-9
        for _ in range(DEGRADE_WINDOW - 1):
            assert not sched.observe(DEGRADE_PRESSURE, preempted=False)
        assert sched.observe(DEGRADE_PRESSURE, preempted=False)
        assert sched.max_batch == 32
        for _ in range(DEGRADE_WINDOW - 1):
            assert sched.observe(cool, preempted=False)
        assert not sched.observe(cool, preempted=False)
        assert sched.max_batch == 64

    def test_slack_widens_admission(self):
        # Full-sequence admission commits up to the slack's share of the
        # pool: a request of exactly that many tokens is served, and one
        # token more is refused as infeasible.
        eng = engine(max_batch=4, hbm_bytes=20e9)
        limit = int(eng.kv.token_capacity * KV_CAPACITY_SLACK)
        fits, over = Request(0, limit - 8, 8), Request(1, limit - 7, 8)
        assert fits.total_len == limit
        rep = eng.run([fits, over])
        assert fits.phase is Phase.FINISHED
        assert over.phase is Phase.REJECTED
        assert rep.requests_completed == rep.requests_rejected == 1


class TestDeadlines:
    def test_no_slo_behavior_unchanged(self):
        a = engine(max_batch=8).run(make_batch_requests(8, 64, 16))
        b = engine(max_batch=8).run(make_batch_requests(8, 64, 16))
        assert a == b
        assert b.deadline_misses == 0
        assert b.good_output_tokens == b.output_tokens

    def test_generous_slo_all_good(self):
        reqs = make_batch_requests(8, 64, 16, ttft_slo=1e6, e2e_slo=1e6)
        rep = engine(max_batch=8).run(reqs)
        assert rep.requests_completed == 8
        assert rep.deadline_misses == 0
        assert rep.goodput == rep.throughput

    def test_ttft_slo_sheds_queued_requests(self):
        # max_batch=1 serializes; later requests blow their TTFT budget
        # while waiting and are shed without ever running.
        reqs = make_batch_requests(6, 2048, 64, ttft_slo=0.5)
        eng = engine(max_batch=1)
        rep = eng.run(reqs)
        assert rep.requests_timed_out > 0
        assert all(r.phase in TERMINAL_PHASES for r in reqs)
        shed = [r for r in reqs if r.phase is Phase.TIMED_OUT]
        assert all(r.generated == 0 for r in shed)
        assert rep.deadline_misses >= rep.requests_timed_out
        assert eng.kv.free_blocks == eng.kv.num_blocks

    def test_e2e_slo_cuts_requests_mid_flight(self):
        reqs = make_batch_requests(4, 256, 512, e2e_slo=0.2)
        eng = engine(max_batch=4)
        rep = eng.run(reqs)
        assert all(r.phase is Phase.TIMED_OUT for r in reqs)
        # Cut-off requests keep the tokens they produced (raw throughput)
        # but contribute nothing to goodput.
        assert rep.output_tokens == sum(r.generated for r in reqs)
        assert rep.good_output_tokens == 0
        assert rep.goodput == 0.0
        assert eng.kv.free_blocks == eng.kv.num_blocks

    def test_late_finish_counts_as_deadline_miss(self):
        # SLO large enough to finish but small enough to miss: pick by
        # running a clean probe first.
        probe = engine(max_batch=2).run(make_batch_requests(2, 256, 64))
        e2e = probe.sim_seconds * 0.75  # both finish, at least one late
        reqs = make_batch_requests(2, 256, 64, e2e_slo=e2e)
        rep = engine(max_batch=2).run(reqs)
        finished_late = [
            r for r in reqs if r.phase is Phase.FINISHED and not r.slo_met
        ]
        cut = [r for r in reqs if r.phase is Phase.TIMED_OUT]
        assert rep.deadline_misses == len(finished_late) + len(cut)
        assert rep.good_output_tokens < rep.output_tokens


class TestGracefulDegradation:
    def _overloaded(self, degrade, sink=None, **cfg):
        eng = engine(
            max_batch=48, hbm_bytes=20e9, reserve_full_sequence=False,
            degrade_under_pressure=degrade, **cfg,
        )
        reqs = make_overload_trace(
            40, eng.kv.token_capacity, overload=1.5, seed=5
        )
        return eng, eng.run(reqs, sink=sink)

    def test_degradation_reduces_preemption_thrash(self):
        _, base = self._overloaded(degrade=False)
        _, degraded = self._overloaded(degrade=True)
        assert degraded.degraded_steps > 0
        assert degraded.preemptions < base.preemptions
        assert degraded.requests_completed == base.requests_completed

    def test_degradation_off_by_default(self):
        _, base = self._overloaded(degrade=False)
        assert base.degraded_steps == 0

    def test_degradation_never_raises_a_small_prefill_chunk(self):
        # A configured chunk below block_tokens is the shrink floor too.
        _, spans = obs.enable()
        try:
            _, report = self._overloaded(degrade=True, prefill_chunk_tokens=8)
        finally:
            obs.disable()
        assert report.degraded_steps > 0
        assert max(
            r.attrs["prefill_tokens"] for r in spans.records
            if r.cat == STEP_SPAN_CAT and r.domain == "sim"
        ) == 8

    def test_degraded_steps_counted_as_they_run(self):
        # A mid-run read of the telemetry counter already sees the
        # degraded steps so far, not 0 until the run ends.
        registry, _ = obs.enable(MetricsRegistry())
        seen = []

        class MidRunReader(EngineEvents):
            def step_end(self, step, tokens):
                seen.append(registry.get("serving.degraded_steps_total").value)

        try:
            _, report = self._overloaded(degrade=True, sink=MidRunReader())
            final = registry.get("serving.degraded_steps_total").value
        finally:
            obs.disable()
        assert report.degraded_steps > 0
        assert max(seen) > 0
        assert final == report.degraded_steps


class TestOptimisticAdmissionTraces:
    """End-to-end coverage of reserve_full_sequence=False with arrivals."""

    def _trace_engine(self):
        return engine(
            max_batch=16, hbm_bytes=17.5e9, reserve_full_sequence=False,
            system="trtllm-fp16",
        )

    def test_poisson_trace_completes(self):
        eng = self._trace_engine()
        reqs = make_poisson_trace(
            30, arrival_rate=20.0, mean_prompt_len=256,
            mean_new_tokens=64, seed=11,
        )
        rep = eng.run(reqs)
        assert all(r.phase in TERMINAL_PHASES for r in reqs)
        assert rep.requests_completed + rep.requests_rejected == len(reqs)
        assert rep.output_tokens == sum(r.generated for r in reqs)
        assert eng.kv.free_blocks == eng.kv.num_blocks

    def test_preemption_with_arrivals_and_chunking(self):
        eng = engine(
            max_batch=16, hbm_bytes=17.5e9, reserve_full_sequence=False,
            system="trtllm-fp16", prefill_chunk_tokens=64,
        )
        cap = eng.kv.token_capacity
        per = max(cap // 3, 32)
        reqs = [
            Request(i, per // 2, per // 2, arrival_time=0.02 * i)
            for i in range(5)
        ]
        rep = eng.run(reqs)
        assert rep.requests_completed == 5
        assert rep.output_tokens == sum(r.generated for r in reqs)
        assert eng.kv.free_blocks == eng.kv.num_blocks

    def test_single_request_outgrowing_pool_is_rejected(self):
        eng = self._trace_engine()
        cap = eng.kv.token_capacity
        req = Request(0, prompt_len=cap // 2, max_new_tokens=cap)
        rep = eng.run([req])
        assert req.phase is Phase.REJECTED
        assert rep.requests_rejected == 1


class TestLifecycleInvariants:
    """Property tests: terminal-phase exclusivity and token conservation."""

    @settings(max_examples=12, deadline=None)
    @given(
        num_requests=st.integers(1, 12),
        prompt=st.integers(8, 512),
        out=st.integers(2, 64),
        max_batch=st.integers(1, 16),
        seed=st.integers(0, 100),
        step_fault=st.floats(0.0, 0.3),
        kv_loss=st.floats(0.0, 0.1),
        abort=st.floats(0.0, 1.0),
        optimistic=st.booleans(),
        chunked=st.booleans(),
    )
    def test_every_request_ends_in_exactly_one_terminal_phase(
        self, num_requests, prompt, out, max_batch, seed,
        step_fault, kv_loss, abort, optimistic, chunked,
    ):
        eng = engine(
            max_batch=max_batch,
            hbm_bytes=20e9,
            reserve_full_sequence=not optimistic,
            prefill_chunk_tokens=128 if chunked else None,
            max_retries=2,
        )
        reqs = make_poisson_trace(
            num_requests, arrival_rate=50.0, mean_prompt_len=prompt,
            mean_new_tokens=out, seed=seed,
        )
        plan = FaultPlan(
            seed=seed, step_fault_rate=step_fault, kv_loss_rate=kv_loss,
            request_abort_rate=abort,
        )
        rep = eng.run(reqs, faults=plan)
        # Exactly one terminal phase each.
        assert all(r.phase in TERMINAL_PHASES for r in reqs)
        # The report's terminal counts partition the request set.
        assert (
            rep.requests_completed + rep.requests_failed
            + rep.requests_rejected + rep.requests_timed_out
            == len(reqs)
        )
        # Token conservation under preemption, retry, and faults.
        assert rep.output_tokens == sum(r.generated for r in reqs)
        assert 0 <= rep.good_output_tokens <= rep.output_tokens
        # All KV returned to the pool.
        assert eng.kv.free_blocks == eng.kv.num_blocks
        assert eng.kv.live_sequences() == []
