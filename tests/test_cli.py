"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in ("models", "kernels", "serve", "quantize", "roofline",
                    "stats", "top"):
            args = parser.parse_args([cmd] if cmd != "serve" else [cmd])
            assert args.command == cmd

    def test_analyze_subcommand_registered(self):
        parser = build_parser()
        args = parser.parse_args(["analyze", "snap.json", "--top", "3"])
        assert args.command == "analyze"
        assert args.top == 3


class TestModels:
    def test_lists_paper_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "llama-3-70b" in out
        assert "qwen2-72b" in out
        assert "tiny-llama-1" in out


class TestKernels:
    def test_default_run(self, capsys):
        assert main(["kernels", "--model", "llama-2-7b", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "w_gate" in out
        assert "us" in out

    def test_single_kernel(self, capsys):
        assert main([
            "kernels", "--kernel", "comet-w4ax", "--batch", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "comet-w4ax" in out

    def test_unknown_kernel(self, capsys):
        assert main(["kernels", "--kernel", "magic"]) == 2

    def test_h100_marks_unsupported(self, capsys):
        assert main([
            "kernels", "--gpu", "H100-SXM5", "--kernel", "oracle-w4a4",
            "--batch", "8",
        ]) == 0
        assert "n/a" in capsys.readouterr().out


class TestServe:
    def test_serve_run(self, capsys):
        rc = main([
            "serve", "--model", "llama-3-8b", "--system", "comet",
            "--prompt", "128", "--out", "32", "--batch", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "TTFT" in out
        assert "GEMM" in out

    def test_serve_oom(self, capsys):
        rc = main([
            "serve", "--model", "llama-3-70b", "--system", "trtllm-fp16",
        ])
        assert rc == 1
        assert "OOM" in capsys.readouterr().err


class TestTop:
    def test_oom_exit_leaves_telemetry_off(self, capsys):
        import repro.obs as obs

        rc = main([
            "top", "--model", "llama-3-70b", "--system", "trtllm-fp16",
            "--once", "--requests", "5",
        ])
        assert rc == 1
        assert "OOM" in capsys.readouterr().err
        assert not obs.enabled()

    @pytest.mark.parametrize("command", ["serve", "chaos"])
    def test_oom_exit_with_metrics_leaves_telemetry_off(
        self, command, tmp_path, capsys
    ):
        import repro.obs as obs

        path = tmp_path / "oom.prom"
        rc = main([
            command, "--model", "llama-3-70b", "--system", "trtllm-fp16",
            "--emit-metrics", str(path),
        ])
        assert rc == 1
        assert "OOM" in capsys.readouterr().err
        assert not obs.enabled()
        assert not list(tmp_path.iterdir())

    def test_quiet_run(self, capsys):
        rc = main([
            "top", "--model", "llama-3-8b", "--system", "comet",
            "--requests", "12", "--batch", "8", "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO final:" in out
        assert "flight records" in out
        assert "tok/s" in out  # final report summary line

    def test_run_with_http_and_faults(self, capsys):
        rc = main([
            "top", "--model", "llama-3-8b", "--system", "comet",
            "--requests", "12", "--batch", "8", "--quiet",
            "--http-port", "0", "--faults",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "live endpoints at http://" in out

    def test_dashboard_renders(self, capsys):
        rc = main([
            "top", "--model", "llama-3-8b", "--system", "comet",
            "--requests", "8", "--batch", "8", "--refresh", "50",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving.step_seconds" in out  # window table rendered

    def test_once_json_stdout_is_pure_json(self, capsys):
        rc = main([
            "top", "--model", "llama-3-8b", "--system", "comet",
            "--requests", "12", "--batch", "8", "--quiet",
            "--once", "--json", "-",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # nothing but the JSON document on stdout
        assert set(doc) == {"snapshot", "report", "slo_final"}
        attrib = doc["snapshot"]["attrib"]
        assert attrib["completed"] == 12
        assert attrib["aggregate"]["dominant"] in attrib["aggregate"][
            "fractions"
        ]
        report = doc["report"]
        # Overload scenario: every request closes somehow, not all finish.
        accounted = (
            report["requests_completed"] + report["requests_failed"]
            + report["requests_rejected"] + report["requests_timed_out"]
        )
        assert accounted == 12
        assert "throughput" in report

    def test_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "top.json"
        rc = main([
            "top", "--model", "llama-3-8b", "--system", "comet",
            "--requests", "8", "--batch", "8", "--quiet", "--once",
            "--json", str(out_path),
        ])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["snapshot"]["attrib"]["completed"] == 8


class TestAnalyze:
    @pytest.fixture(autouse=True)
    def _obs_off(self):
        import repro.obs as obs

        obs.disable()
        yield
        obs.disable()

    def _record_run(self, tmp_path):
        snap = tmp_path / "run.prom"
        rc = main([
            "top", "--model", "llama-3-8b", "--system", "comet",
            "--requests", "24", "--batch", "8", "--quiet", "--once",
            "--faults", "--emit-metrics", str(snap),
        ])
        assert rc == 0
        return snap

    def test_analyze_recorded_run(self, tmp_path, capsys):
        snap = self._record_run(tmp_path)
        capsys.readouterr()
        report = tmp_path / "analysis.json"
        rc = main([
            "analyze", str(snap), "--top", "3", "--json", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "tail latency" in out
        doc = json.loads(report.read_text())
        assert doc["requests"] == 24
        assert len(doc["tail"]["slowest"]) == 3
        assert doc["critical_path"]["dominant"] in {
            e["name"] for e in doc["critical_path"]["path"]
        }
        # The chrome trace next to the snapshot was auto-discovered.
        assert doc["trace"]["step_kinds"]

    def test_analyze_resolves_bare_prefix(self, tmp_path, capsys):
        """`analyze PATH` accepts the bare --emit-metrics prefix (the
        .prom file) and finds the .json snapshot beside it."""
        snap = self._record_run(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(snap)]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_analyze_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2

    def test_analyze_snapshot_without_ledger_exits_2(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"live": {}}))
        assert main(["analyze", str(bare)]) == 2
        assert "live.attrib" in capsys.readouterr().err


class TestQuantize:
    def test_quantize_report(self, capsys, zoo_llama1):
        rc = main(["quantize", "--zoo-model", "tiny-llama-1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "W4A4 GEMM volume" in out
        assert "perplexity" in out

    def test_quantize_save_checkpoint(self, tmp_path, zoo_llama1):
        ckpt = tmp_path / "model.npz"
        rc = main([
            "quantize", "--zoo-model", "tiny-llama-1", "--save", str(ckpt),
        ])
        assert rc == 0
        assert ckpt.exists()
        from repro.core.serialization import load_quantized_model

        model, kv = load_quantized_model(ckpt)
        assert kv is not None

    def test_save_rejected_for_baselines(self, capsys, zoo_llama1):
        rc = main([
            "quantize", "--zoo-model", "tiny-llama-1",
            "--method", "qoq-w4a8kv4", "--save", "/tmp/nope.npz",
        ])
        assert rc == 2


class TestRoofline:
    def test_roofline_output(self, capsys):
        assert main(["roofline"]) == 0
        out = capsys.readouterr().out
        assert "attn-fp16" in out
        assert "memory-bound" in out

    def test_h100_roofline(self, capsys):
        assert main(["roofline", "--gpu", "H100-SXM5"]) == 0
        assert "fp8" in capsys.readouterr().out


class TestPlan:
    def test_plan_recommendation(self, capsys):
        rc = main([
            "plan", "--model", "llama-3-8b", "--prompt", "128",
            "--out", "32", "--batch", "16", "--probe", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "deploy" in out
        assert "comet" in out

    def test_plan_infeasible_returns_nonzero(self, capsys):
        rc = main([
            "plan", "--model", "llama-3-8b", "--prompt", "128",
            "--out", "32", "--batch", "8", "--probe", "4",
            "--ttft-ms", "0.000001",
        ])
        assert rc == 1
        assert "no feasible" in capsys.readouterr().out


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck", "--cases", "4"]) == 0
        assert "OK" in capsys.readouterr().out


class TestStats:
    @pytest.fixture(autouse=True)
    def _obs_off(self):
        import repro.obs as obs

        obs.disable()
        yield
        obs.disable()

    def test_stats_exercises_all_layers(self, tmp_path, capsys):
        snap = tmp_path / "metrics.prom"
        rc = main([
            "stats", "--requests", "4", "--prompt", "64", "--out", "8",
            "--emit-metrics", str(snap),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving.ttft_seconds" in out
        assert "fmpq.layers_calibrated_total" in out
        # The Prometheus snapshot spans every instrumented layer with a
        # healthy number of distinct metric families.
        import re

        text = snap.read_text()
        names = set(re.findall(r"^# TYPE (\S+)", text, re.M))
        assert len(names) >= 12
        for prefix in ("fmpq.", "kernel.", "gpu.", "serving."):
            assert any(n.startswith(prefix) for n in names), prefix
        # Merged chrome trace: simulated timeline + wall-clock span tree.
        import json

        trace = json.loads((tmp_path / "metrics.prom.trace.json").read_text())
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert pids == {0, 1}
        assert (tmp_path / "metrics.prom.json").exists()

    def test_stats_without_snapshot(self, capsys):
        assert main(["stats", "--requests", "2"]) == 0
        assert "span / [event]" in capsys.readouterr().out


class TestEmitMetrics:
    @pytest.fixture(autouse=True)
    def _obs_off(self):
        import repro.obs as obs

        obs.disable()
        yield
        obs.disable()

    def test_serve_emit_metrics(self, tmp_path, capsys):
        snap = tmp_path / "serve.prom"
        rc = main([
            "serve", "--model", "llama-3-8b", "--system", "comet",
            "--prompt", "64", "--out", "8", "--batch", "4",
            "--emit-metrics", str(snap),
        ])
        assert rc == 0
        text = snap.read_text()
        assert "serving.ttft_seconds" in text
        assert "kernel.latency_calls_total" in text
        # The telemetry sink's simulated steps reach the merged trace.
        import json

        trace = json.loads((tmp_path / "serve.prom.trace.json").read_text())
        sim = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 0
        ]
        assert sim

    def test_kernels_emit_metrics(self, tmp_path, capsys):
        snap = tmp_path / "kernels.prom"
        rc = main([
            "kernels", "--model", "llama-2-7b", "--batch", "8",
            "--kernel", "comet-w4ax", "--emit-metrics", str(snap),
        ])
        assert rc == 0
        text = snap.read_text()
        assert "kernel.latency_seconds" in text
        assert "gpu.sm_occupancy" in text


class TestSweep:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--model", "llama-2-7b", "--batch", "8",
            "--kernel", "comet-w4ax", "--output", str(out),
        ])
        assert rc == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert "kernel" in header and "seconds" in header

    def test_sweep_unknown_kernel(self, capsys):
        assert main(["sweep", "--kernel", "magic"]) == 2
