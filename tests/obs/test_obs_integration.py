"""Cross-layer integration: real runs emit the documented telemetry.

These tests drive the actual instrumented code paths — a serving-engine
run, an FMPQ calibration, a kernel latency query — and assert the metric
names and span hierarchy the observability docs promise.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.core.fmpq import calibrate_linear
from repro.kernels.base import clear_latency_memo
from repro.kernels.w4ax import W4AxKernel
from repro.kernels.tiling import GEMMShape
from repro.model.config import get_model_config
from repro.obs.attrib import analyze_trace
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.request import make_batch_requests
from repro.serving.systems import build_system
from repro.serving.trace import EngineEvents


def run_engine(n_requests=4, sink=None):
    engine = ServingEngine(
        get_model_config("llama-3-8b"),
        build_system("comet"),
        config=EngineConfig(max_batch=8),
    )
    reqs = make_batch_requests(n_requests, 64, 8)
    report = engine.run(reqs, sink=sink)
    return engine, report


class TestServingTelemetry:
    def test_engine_run_emits_latency_histograms_and_kv_gauges(self):
        reg, _ = obs.enable()
        _, report = run_engine()
        ttft = reg.get("serving.ttft_seconds")
        tpot = reg.get("serving.tpot_seconds")
        assert ttft is not None and ttft.count == 4
        assert tpot is not None and tpot.count == 4
        assert ttft.sum > 0 and tpot.sum > 0
        assert reg.get("serving.kv_utilization") is not None
        assert reg.get("serving.kv_fragmentation") is not None
        assert reg.get("serving.requests_admitted_total").value == 4
        assert reg.get("serving.requests_finished_total").value == 4
        assert (
            reg.get("serving.output_tokens_total").value
            == report.output_tokens
        )
        steps = reg.get("serving.engine_steps_total")
        total_steps = sum(c.value for _, c in steps.series())
        assert total_steps > 0

    def test_engine_step_spans_nest_kernel_and_simulator_spans(self):
        _, tracer = obs.enable()
        run_engine()
        runs = tracer.find("serving.engine_run")
        assert len(runs) == 1
        steps = [
            s for s in tracer.records
            if s.name == "engine.step" and s.domain == "wall"
        ]
        assert steps and all(
            s.parent_id == runs[0].span_id for s in steps
        )
        kernel_spans = tracer.find("kernel.latency")
        assert kernel_spans, "kernel latency spans missing"
        step_ids = {s.span_id for s in steps}
        assert any(k.parent_id in step_ids for k in kernel_spans)
        sim_spans = tracer.find("gpu.simulate_schedule")
        kernel_ids = {k.span_id for k in kernel_spans}
        assert sim_spans and all(
            s.parent_id in kernel_ids for s in sim_spans
        )

    def test_request_lifecycle_events_on_sim_clock(self):
        _, tracer = obs.enable()
        run_engine(n_requests=2)
        stages = ("queued", "prefill", "decode", "finished")
        for stage in stages:
            events = tracer.find(f"serving.request.{stage}")
            assert len(events) == 2, stage
            assert all(e.domain == "sim" and e.instant for e in events)
        # Lifecycle ordering per request on the simulated clock.
        by_req = {}
        for stage in stages:
            for e in tracer.find(f"serving.request.{stage}"):
                by_req.setdefault(e.attrs["request_id"], {})[stage] = e.start
        for times in by_req.values():
            assert (
                times["queued"]
                <= times["prefill"]
                <= times["decode"]
                <= times["finished"]
            )

    def test_analyzer_step_mix_is_simulated_seconds(self, tmp_path):
        # Whole-prompt prefills included: the analyzer sums the sim steps.
        obs.enable()
        _, report = run_engine()
        paths = obs.write_snapshot(tmp_path / "run.prom")
        trace = json.loads(paths["trace"].read_text())
        kinds = analyze_trace(trace)["step_kinds"]
        assert kinds["prefill"]["count"] == 4
        assert kinds["prefill"]["seconds"] == pytest.approx(
            report.prefill_seconds, rel=1e-12
        )
        assert kinds["decode"]["seconds"] == pytest.approx(
            report.decode_seconds, rel=1e-12
        )


class TestLayerTelemetry:
    def test_fmpq_calibration_metrics(self):
        reg, tracer = obs.enable()
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((32, 256)).astype(np.float32)
        acts = rng.standard_normal((16, 256)).astype(np.float32)
        acts[:, :4] *= 40.0  # guaranteed outlier channels
        _, stats = calibrate_linear(weight, acts, name="itest")
        assert reg.get("fmpq.layers_calibrated_total").value == 1
        assert (
            reg.get("fmpq.outlier_channels_total").value
            == stats.num_outlier_channels
            > 0
        )
        assert reg.get("fmpq.w4a4_block_fraction").count == 1
        assert reg.get("fmpq.clip_search_iterations_total").value > 0
        cal = tracer.find("fmpq.calibrate")[0]
        child_names = {c.name for c in tracer.children_of(cal.span_id)}
        assert child_names == {
            "fmpq.collect_stats",
            "fmpq.permute",
            "fmpq.assign_blocks",
            "fmpq.weight_quant",
        }

    def test_kernel_latency_metrics(self):
        reg, tracer = obs.enable()
        kernel = W4AxKernel()
        lat = kernel.latency(GEMMShape(64, 4096, 4096))
        assert reg.get("kernel.latency_calls_total") is not None
        tiles = reg.get("kernel.tiles_total")
        total_tiles = sum(c.value for _, c in tiles.series())
        assert total_tiles == sum(n for _, n in lat.tiles_by_precision) > 0
        assert lat.convert_instructions > 0
        assert reg.get("gpu.schedules_total") is not None
        occ = reg.get("gpu.sm_occupancy")
        assert sum(c.count for _, c in occ.series()) > 0
        spans = tracer.find("kernel.latency")
        assert spans and tracer.children_of(spans[0].span_id)


class TestDisabledMode:
    def test_runs_record_nothing_when_disabled(self):
        assert not obs.enabled()
        engine, _ = run_engine()
        assert obs.metrics().collect() == []
        assert obs.tracer() is None
        # Kernel extras are closed-form counts, filled whether or not
        # telemetry is on, and identical either way.
        lat = W4AxKernel().latency(GEMMShape(8, 1024, 1024))
        assert obs.metrics().collect() == []
        clear_latency_memo()
        obs.enable()
        try:
            assert W4AxKernel().latency(GEMMShape(8, 1024, 1024)) == lat
        finally:
            obs.disable()
        assert lat.tiles_by_precision == (("int4", 48), ("int8", 16))
        assert lat.convert_instructions > 0.0

    def test_engine_sink_still_works_when_disabled(self):
        steps = []

        class StepRecorder(EngineEvents):
            def step_cost(self, step):
                steps.extend(step.each())

        run_engine(sink=StepRecorder())
        assert len(steps) > 0
        assert obs.tracer() is None


class TestCrossRunIsolation:
    def test_fresh_registry_after_disable_enable(self):
        reg1, _ = obs.enable()
        reg1.counter("x").inc()
        obs.disable()
        reg2, _ = obs.enable()
        assert reg2.get("x") is None
