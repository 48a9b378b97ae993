"""Engine <-> live-observability integration: the heartbeat contract.

The acceptance criteria from docs/observability.md, asserted end to end:
the flight recorder holds a full timeline for a failed request, the SLO
monitor goes non-ok under injected overload, and the report is bit-equal
with the live layer attached or detached (zero perturbation).
"""

import gc
import json
import time
from unittest import mock

import pytest

import repro.obs as obs
from repro.obs import live as live_obs
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.model.config import get_model_config, tiny_config
from repro.serving.batchstate import BatchState
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.request import Request
from repro.serving.stepprof import StepPhaseProfiler
from repro.serving.systems import build_system
from repro.serving.workload import make_overload_trace, make_poisson_trace


def _engine():
    return ServingEngine(
        get_model_config("llama-3-8b"),
        build_system("comet"),
        config=EngineConfig(
            max_batch=32, hbm_bytes=20e9, prefill_chunk_tokens=256
        ),
    )


def _overload_trace(engine, n=40, ttft_slo=1.0):
    return make_overload_trace(
        n, engine.kv.token_capacity, overload=2.0, ttft_slo=ttft_slo, seed=0
    )


CHAOS = FaultPlan(
    seed=0, step_fault_rate=0.1, kv_loss_rate=0.02,
    straggler_rate=0.05, request_abort_rate=0.1,
)


@pytest.fixture()
def live():
    bundle = live_obs.attach(window_seconds=1.0)
    yield bundle
    live_obs.detach()


class TestHeartbeat:
    def test_engine_feeds_windows_and_clock(self, live):
        engine = _engine()
        report = engine.run(make_poisson_trace(12, 50.0, seed=1))
        assert live.steps > 0
        assert live.clock == pytest.approx(report.sim_seconds)
        stats = live.windows.stats()
        assert stats["serving.step_seconds"].count > 0
        assert stats["serving.batch_size"].count > 0
        assert stats["serving.kv_utilization"].count > 0

    def test_heartbeat_hook_fires(self):
        seen = []
        live_obs.attach(
            window_seconds=1.0,
            heartbeat_hook=lambda b: seen.append(b.steps),
            hook_every=10,
        )
        try:
            _engine().run(make_poisson_trace(8, 50.0, seed=1))
        finally:
            live_obs.detach()
        assert seen
        assert all(s % 10 == 0 for s in seen)

    @staticmethod
    def _hook_reads():
        """What a per-step heartbeat hook reads over a Poisson run."""
        reads = []
        live_obs.attach(heartbeat_hook=lambda b: reads.append(
            (b.steps, b.clock, b.flights.summary(), b.snapshot())
        ))
        try:
            _engine().run(make_poisson_trace(12, 50.0, seed=1))
        finally:
            live_obs.detach()
        return reads

    def test_hooked_bundle_sees_every_step(self):
        # A hooked run takes the event horizon too: no request event fires
        # inside a multi-step record, so each of the hook's reads of the
        # bundle is the one a run held to one step per iteration gives.
        reads = self._hook_reads()
        with mock.patch.object(BatchState, "horizon", lambda self: 1):
            assert reads == self._hook_reads()
        assert len(reads) == reads[-1][0] and reads[-1][2]["completed"] == 12


class TestFlightRecorder:
    def test_every_request_is_tracked(self, live):
        engine = _engine()
        trace = make_poisson_trace(12, 50.0, seed=1)
        engine.run(trace)
        assert len(live.flights) == len(trace)
        assert live.flights.active_ids() == []  # all closed at end of run

    def test_waiting_requests_are_tracked_from_arrival(self):
        """The store opens a record when a request arrives, not when it is
        admitted: at heartbeat 100 of a 2x overload on a 4-slot batch,
        every one of the 30 arrived requests is in flight."""
        engine = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(
                max_batch=4, hbm_bytes=20e9, prefill_chunk_tokens=256
            ),
        )
        reqs = make_overload_trace(
            30, engine.kv.token_capacity, overload=2.0, seed=0
        )
        seen = {}

        def hook(bundle):
            if bundle.steps == 100:
                seen.update(bundle.flights.summary(), clock=bundle.clock)

        live_obs.attach(heartbeat_hook=hook)
        try:
            engine.run(reqs)
        finally:
            live_obs.detach()
        assert max(r.arrival_time for r in reqs) <= seen["clock"]
        assert seen["active"] == 30
        assert seen["completed"] == 0

    def test_failed_request_has_full_timeline(self, live):
        engine = _engine()
        engine.run(_overload_trace(engine), faults=CHAOS)
        failures = live.flights.failures()
        assert failures, "overload + chaos must produce failed requests"
        rec = failures[0]
        events = [event for _, event, _ in rec.timeline]
        assert events[0] == "queued"
        assert events[-1] in ("failed", "rejected", "timed_out")
        assert rec.end_time is not None
        assert rec.e2e_seconds is not None
        json.dumps(rec.to_dict())  # servable via /requests/<id>

    def test_finished_request_phases_are_ordered(self, live):
        engine = _engine()
        engine.run(make_poisson_trace(12, 50.0, seed=1))
        done = [r for r in live.flights.completed()
                if r.outcome == "finished"]
        assert done
        for rec in done:
            assert rec.arrival_time <= rec.admitted_time
            assert rec.admitted_time <= rec.first_token_time
            assert rec.first_token_time <= rec.end_time
            assert rec.kv_blocks_peak > 0
            assert rec.generated > 0

    def test_preemptions_record_the_tokens_they_discard(self):
        # Optimistic admission on a pool just above the weights preempts.
        engine = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(
                hbm_bytes=4.8e9, max_batch=16, reserve_full_sequence=False
            ),
        )
        reqs = [Request(i, prompt_len=900, max_new_tokens=900) for i in range(10)]
        registry, _ = obs.enable(MetricsRegistry(), SpanTracer())
        live = live_obs.attach(capacity=len(reqs))
        try:
            report = engine.run(reqs)
        finally:
            live_obs.detach()
            obs.disable()
        lost = [
            detail["lost_tokens"]
            for rec in live.flights.completed()
            for _, event, detail in rec.timeline if event == "preempted"
        ]
        assert len(lost) == report.preemptions > 0
        assert report.retries == 0
        # Every decoded token is either kept or discarded by a preemption.
        decoded = registry.get("serving.output_tokens_total").value
        assert sum(lost) == decoded - report.output_tokens > 0


class TestSLO:
    def test_non_ok_under_overload(self, live):
        engine = _engine()
        engine.run(_overload_trace(engine), faults=CHAOS)
        snap = live.slo.snapshot()
        assert snap["worst_state"] in ("warn", "critical")
        assert snap["lifetime_misses"] > 0
        assert snap["events"], "degradation transitions must be logged"

    def test_ok_without_slos(self, live):
        engine = _engine()
        # No per-request SLOs -> nothing feeds the monitor.
        engine.run(make_poisson_trace(8, 50.0, seed=1))
        assert live.slo.state == "ok"
        assert live.slo.total == 0


class TestZeroCost:
    def test_report_identical_with_and_without_live(self):
        engine_a = _engine()
        baseline = engine_a.run(_overload_trace(engine_a), faults=CHAOS)
        live_obs.attach(window_seconds=1.0)
        try:
            engine_b = _engine()
            observed = engine_b.run(_overload_trace(engine_b), faults=CHAOS)
        finally:
            live_obs.detach()
        assert observed == baseline

    def test_detached_engine_records_nothing(self):
        live = live_obs.LiveObs()
        engine = _engine()
        engine.run(make_poisson_trace(6, 50.0, seed=1))
        assert live.steps == 0
        assert len(live.flights) == 0


class TestSnapshotExport:
    def test_write_snapshot_includes_live_state(self, live, tmp_path):
        obs.enable()
        try:
            engine = _engine()
            engine.run(_overload_trace(engine), faults=CHAOS)
            paths = obs.write_snapshot(tmp_path / "run")
            doc = json.loads(paths["json"].read_text())
        finally:
            obs.disable()
        assert "live" in doc
        assert doc["live"]["steps"] == live.steps
        assert doc["live"]["slo"]["worst_state"] in ("warn", "critical")
        assert doc["live"]["flights"]["completed"] == len(live.flights)


class TestHeartbeatBatch:
    """`LiveObs.heartbeat_batch` must leave the same end state as the
    equivalent sequence of per-step `heartbeat` calls — the engine's
    batched flush path depends on it."""

    METRICS = ("serving.step_seconds", "serving.batch_size")

    #: Batch boundaries; ``_feed`` may record SLO outcomes at each.
    BATCHES = ((0, 1), (1, 40), (40, 40), (40, 70), (70, 100))

    def _feed(self, bundle, batched, outcomes=False):
        """Feed 100 steps, per step or in ``BATCHES``; with ``outcomes``,
        record missed SLO outcomes after each batch that ends at step 1 or
        40, so the SLO window holds outcomes, empties and recovers along
        the way."""
        import numpy as np

        rng = np.random.default_rng(5)
        clocks = np.cumsum(rng.uniform(1e-3, 5e-3, size=100))
        cols = {
            name: rng.uniform(0.0, 10.0, size=100) for name in self.METRICS
        }
        rows = np.column_stack([cols[name] for name in self.METRICS])
        for lo, hi in self.BATCHES:
            if batched:
                bundle.heartbeat_batch(clocks[lo:hi], self.METRICS, rows[lo:hi])
            else:
                for i in range(lo, hi):
                    bundle.heartbeat(
                        float(clocks[i]),
                        {k: float(v[i]) for k, v in cols.items()},
                    )
            if outcomes and hi in (1, 40):
                for _ in range(6):
                    bundle.slo.record(float(clocks[hi - 1]), met=False)

    def test_end_state_matches_per_step_heartbeats(self):
        import numpy as np

        hooks = {True: [], False: []}
        snaps = {}
        for batched in (False, True):
            bundle = live_obs.LiveObs(
                window_seconds=0.2,
                heartbeat_hook=lambda b, key=batched: hooks[key].append(
                    (b.steps, b.clock)
                ),
                hook_every=7,
            )
            self._feed(bundle, batched)
            snaps[batched] = bundle.snapshot()
        assert hooks[True] == hooks[False]
        assert snaps[True] == snaps[False]

    def test_unhooked_end_state_matches_per_step_heartbeats(self):
        """Without a hook the batch advances the SLO monitor in one call;
        its state, events and window still match per-step heartbeats."""
        snaps = {}
        for batched in (False, True):
            bundle = live_obs.LiveObs(
                window_seconds=0.2,
                slo_policy=live_obs.SLOPolicy(window_seconds=0.05),
            )
            self._feed(bundle, batched, outcomes=True)
            snaps[batched] = bundle.snapshot()
        assert [e["to"] for e in snaps[False]["slo"]["events"]] == [
            "critical", "ok", "critical", "ok"
        ]
        assert snaps[True] == snaps[False]

    def test_empty_batch_is_noop(self):
        import numpy as np

        bundle = live_obs.LiveObs()
        bundle.heartbeat_batch(np.zeros(0), (), np.zeros((0, 0)))
        assert bundle.steps == 0 and bundle.clock == 0.0


class TestAttachedCostFlatInPoolSize:
    """The attached engine's per-step host cost does not grow with the KV
    pool: the same tiny-model trace on an 82k-block pool and on the
    default-HBM 31.3M-block pool (the one the hot-path bench serves on)."""

    SMALL_HBM = 200e6  # 82k blocks for the tiny model

    @staticmethod
    def _attached_run(hbm_bytes):
        """(num_blocks, construction s, attached overhead us/step)."""
        kwargs = {} if hbm_bytes is None else {"hbm_bytes": hbm_bytes}
        start = time.perf_counter()
        engine = ServingEngine(
            tiny_config(), build_system("comet"),
            config=EngineConfig(max_batch=32, **kwargs),
        )
        construct_s = time.perf_counter() - start
        trace = make_poisson_trace(
            60, 200.0, mean_prompt_len=64, mean_new_tokens=32, seed=3
        )
        prof = StepPhaseProfiler()
        live_obs.attach(window_seconds=1.0, capacity=len(trace))
        gc.collect()
        gc.disable()
        try:
            engine.run(trace, profiler=prof)
        finally:
            gc.enable()
            live_obs.detach()
        return engine.kv.num_blocks, construct_s, prof.per_step_us()["overhead"]

    def test_attached_step_cost_flat_across_pool_sizes(self):
        self._attached_run(self.SMALL_HBM)  # warm the cost-model memo
        small, large = [], []
        for _ in range(2):  # interleaved, best of two: robust to noise
            small.append(self._attached_run(self.SMALL_HBM))
            large.append(self._attached_run(None))
        assert small[0][0] == 82_445
        assert large[0][0] == 31_336_785
        assert min(r[1] for r in large) < 0.1
        small_us = min(r[2] for r in small)
        large_us = min(r[2] for r in large)
        assert large_us < 3.0 * small_us, (small_us, large_us)
