"""Tests for engine execution tracing: the steps the engine reports to an
event sink, and the steps and lifecycle instants the telemetry sink puts
on the obs timeline."""

import json

import pytest

import repro.obs as obs
from repro.model.config import get_model_config, tiny_config
from repro.obs import write_snapshot
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.request import Request, make_batch_requests
from repro.serving.systems import build_system
from repro.serving.trace import STEP_SPAN_CAT, EngineEvents, Step, StepView
from repro.serving.workload import make_overload_trace


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


class StepRecorder(EngineEvents):
    """A sink that keeps the step records of a run, in the order reported,
    and their steps (:meth:`Step.each`)."""

    def __init__(self):
        self.records = []
        self.steps = []

    def step_cost(self, step):
        self.records.append(step)
        self.steps.extend(step.each())


def traced_run(**cfg):
    eng = ServingEngine(
        get_model_config("llama-3-8b"), build_system("comet"),
        config=EngineConfig(**cfg),
    )
    tracer = StepRecorder()
    report = eng.run(make_batch_requests(4, 64, 8), sink=tracer)
    return report, tracer


def chaos_run():
    """A tiny-model run under overload, SLOs and every fault kind, with
    telemetry on: its report and the obs simulated-domain records."""
    eng = ServingEngine(
        tiny_config(), build_system("comet"),
        config=EngineConfig(max_batch=8, hbm_bytes=1e6, max_retries=1),
    )
    reqs = make_overload_trace(
        60, eng.kv.token_capacity, overload=2.0, burst_seconds=0.01,
        e2e_slo=0.08, seed=1,
    )
    faults = FaultPlan(seed=3, step_fault_rate=0.05, kv_loss_rate=0.4,
                       request_abort_rate=0.5)
    _, spans = obs.enable()
    tracer = StepRecorder()
    report = eng.run(reqs, sink=tracer, faults=faults)
    records = [r for r in spans.records if r.domain == "sim"]
    return report, tracer, records


def sim_step_spans(records):
    return [r for r in records if r.cat == STEP_SPAN_CAT and r.domain == "sim"]


class TestEngineTracer:
    """The steps a recording sink receives."""

    def test_steps_cover_run(self):
        report, tracer = traced_run(max_batch=4)
        assert len(tracer.steps) > 0
        # Traced time equals simulated time.
        assert sum(s.dt for s in tracer.steps) == pytest.approx(report.sim_seconds)
        # 4 prefills + 8 decode steps.
        kinds = [s.kind for s in tracer.steps]
        assert kinds.count("prefill") == 4
        assert kinds.count("decode") == 8

    def test_steps_contiguous(self):
        _, tracer = traced_run(max_batch=4)
        assert all(isinstance(s, Step) for s in tracer.records)
        assert all(isinstance(s, StepView) for s in tracer.steps)
        for a, b in zip(tracer.steps, tracer.steps[1:]):
            assert b.start == pytest.approx(a.end)

    def test_time_by_kind(self):
        report, tracer = traced_run(max_batch=4)
        by_kind = {"prefill": 0.0, "decode": 0.0}
        for s in tracer.steps:
            by_kind[s.kind] += s.dt
        assert by_kind["prefill"] == pytest.approx(report.prefill_seconds)
        assert by_kind["decode"] == pytest.approx(report.decode_seconds)

    def test_chunked_prefill_traced_as_mixed(self):
        eng = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(max_batch=4, prefill_chunk_tokens=32),
        )
        from repro.serving.request import Request

        tracer = StepRecorder()
        reqs = [Request(0, 16, 8), Request(1, 128, 4, arrival_time=1e-9)]
        eng.run(reqs, sink=tracer)
        kinds = {s.kind for s in tracer.steps}
        assert "mixed" in kinds or "prefill" in kinds
        mixed = [s for s in tracer.steps if s.kind == "mixed"]
        assert all(s.prefill_tokens > 0 and s.decode_tokens > 0 for s in mixed)

    def test_empty_tracer(self):
        # A sink that consumes no event changes nothing in the run.
        report, _ = traced_run(max_batch=4)
        eng = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(max_batch=4),
        )
        assert eng.run(make_batch_requests(4, 64, 8), sink=EngineEvents()) == report

    def test_chrome_trace_export(self, tmp_path):
        # The merged obs export carries one pid-0 step event per traced step.
        obs.enable()
        _, tracer = traced_run(max_batch=4)
        paths = write_snapshot(tmp_path / "run.prom")
        blob = json.loads(paths["trace"].read_text())
        events = [e for e in blob["traceEvents"] if e.get("cat") == STEP_SPAN_CAT]
        assert len(events) == len(tracer.steps)
        assert all(e["ph"] == "X" and e["pid"] == 0 for e in events)
        assert events[0]["dur"] > 0

    def test_records_export(self):
        # Lifecycle instants are telemetry's sim records: a clean run
        # writes no failure instant; a chaos run's carry their causes.
        _, spans = obs.enable()
        traced_run(max_batch=4)
        stages = {r.name for r in spans.records if r.instant}
        assert stages == {
            f"serving.request.{s}"
            for s in ("queued", "prefill", "decode", "finished")
        }
        obs.disable()
        _, _, records = chaos_run()
        retry = next(r for r in records if r.name == "serving.request.retry")
        assert retry.instant and retry.cat == "request"
        assert set(retry.attrs) == {
            "request_id", "prompt_len", "attempt", "reason",
        }
        assert retry.attrs["attempt"] == 1
        fault = next(r for r in records if r.name == "serving.fault")
        assert fault.cat == "fault" and "kind" in fault.attrs

    def test_step_trace_end(self):
        _, tracer = traced_run(max_batch=4)
        for s in tracer.steps:
            assert s.end == pytest.approx(s.start + s.dt)


class TestSpanMigration:
    """The obs timeline's engine steps come from the telemetry sink."""

    def test_steps_are_sim_domain_spans(self):
        _, spans = obs.enable()
        _, tracer = traced_run(max_batch=4)
        records = sim_step_spans(spans.records)
        assert len(records) == len(tracer.steps)
        for span, step in zip(records, tracer.steps):
            assert span.name == f"{step.kind} b={step.batch}"
            assert span.start == step.start
            assert span.duration == step.dt
            assert span.attrs["kind"] == step.kind

    def test_step_span_roundtrip(self):
        # A step span's attrs carry the Step's counts, indexed per run.
        _, spans = obs.enable()
        _, tracer = traced_run(max_batch=4)
        traced_run(max_batch=4)
        records = sim_step_spans(spans.records)
        n = len(tracer.steps)
        assert len(records) == 2 * n
        assert [r.attrs["index"] for r in records] == [*range(n), *range(n)]
        for span, step in zip(records, tracer.steps):
            a = span.attrs
            assert (a["kind"], a["batch"], a["decode_tokens"],
                    a["prefill_tokens"], a["context_tokens"]) == (
                step.kind, step.batch, step.decode_tokens,
                step.prefill_tokens, step.context_tokens,
            )

    def test_steps_forwarded_to_global_tracer_when_enabled(self):
        # With a sink attached to a chaos run, obs holds each step once
        # and one instant per counted failure event, written by telemetry.
        report, tracer, records = chaos_run()
        assert len(sim_step_spans(records)) == len(tracer.steps)
        assert not [r for r in records if r.name.startswith("engine.")]
        names = [r.name for r in records if r.instant]
        counts = {
            "serving.fault": report.faults_injected,
            "serving.request.rejected": report.requests_rejected,
            "serving.request.timed_out": report.requests_timed_out,
            "serving.request.failed": report.requests_failed,
            "serving.request.retry": report.retries,
        }
        assert report.faults_injected and report.retries
        assert {name: names.count(name) for name in counts} == counts

    def test_steps_reach_obs_without_a_tracer(self):
        # A twin run's tracer steps, then an obs-enabled run with none.
        _, tracer = traced_run(max_batch=4)
        _, spans = obs.enable()
        eng = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(max_batch=4),
        )
        eng.run(make_batch_requests(4, 64, 8))
        records = sim_step_spans(spans.records)
        assert len(records) == len(tracer.steps) > 0
        assert [(r.start, r.duration) for r in records] == [
            (s.start, s.dt) for s in tracer.steps
        ]


def test_kv_gauges_read_as_of_each_admission():
    """An admission pass takes every admission's KV blocks at once; the
    telemetry gauges set after each whole-prompt prefill still read the
    pool as of that admission."""
    registry, _ = obs.enable()
    eng = ServingEngine(
        get_model_config("llama-3-8b"), build_system("comet"),
        config=EngineConfig(max_batch=8),
    )
    reqs = [Request(i, prompt_len=40 * i + 7, max_new_tokens=4) for i in range(6)]
    seen = []

    class Probe(EngineEvents):  # reports after the telemetry sink
        def step_end(self, step, tokens):
            if step.serialized:
                seen.append((
                    registry.get("serving.kv_free_blocks").value,
                    registry.get("serving.kv_utilization").value,
                ))

    eng.run(reqs, sink=Probe())
    expected, blocks, tokens = [], 0, 0
    for r in reqs:  # one pass admits them all, in order
        blocks += eng.kv.blocks_needed(r.prompt_len)
        tokens += r.prompt_len
        expected.append((
            eng.kv.num_blocks - blocks, tokens / (blocks * eng.kv.block_tokens)
        ))
    assert seen == expected
