"""Command-line interface for the COMET reproduction.

Subcommands:

* ``models``    — list the registered paper models and tiny zoo models.
* ``kernels``   — simulated A100/H100 kernel latencies for a model's layers.
* ``serve``     — simulated end-to-end serving run for a (model, system).
* ``chaos``     — serving run under injected faults + overload (resilience).
* ``quantize``  — quantize a tiny zoo model and report perplexity impact.
* ``roofline``  — print the Figure 2 roofline points.
* ``stats``     — exercise every instrumented layer and dump telemetry.
* ``top``       — live dashboard over an overload run (windowed rates,
  SLO burn, flight recorder), optionally serving the HTTP endpoints;
  ``--json --once`` turns it into a one-shot machine-readable probe.
* ``analyze``   — post-hoc latency attribution over a recorded snapshot:
  critical-path breakdown, tail-latency explainer, baseline regressions.

``kernels``, ``serve``, and ``quantize`` accept ``--emit-metrics PATH`` to
enable the telemetry subsystem (:mod:`repro.obs`) for the run and write a
Prometheus-text snapshot to PATH plus ``PATH.json`` and a merged
chrome://tracing file at ``PATH.trace.json``.

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.roofline import balance_point, roofline_sweep
from repro.api import KERNELS, kernel_latency, quantize_model
from repro.data.perplexity import evaluate_perplexity
from repro.gpu.spec import KNOWN_GPUS
from repro.model.config import PAPER_MODELS, ModelConfig, get_model_config
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.metrics import LatencyReport
from repro.serving.request import Request, make_batch_requests
from repro.serving.systems import SYSTEM_NAMES, build_system

__all__ = ["main", "build_parser"]


def _begin_metrics(args: argparse.Namespace) -> str | None:
    """Enable telemetry when ``--emit-metrics`` was given; return the path."""
    path = getattr(args, "emit_metrics", None)
    if path:
        import repro.obs as obs

        obs.enable()
    return path


def _end_metrics(path: str | None, quiet: bool = False) -> None:
    if not path:
        return
    from repro.obs.snapshot import write_snapshot

    written = write_snapshot(path)
    if not quiet:
        print(
            "telemetry snapshot: "
            + ", ".join(str(written[k]) for k in ("prometheus", "json", "trace"))
        )


def _add_emit_metrics(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="enable telemetry; write Prometheus text to PATH plus "
             "PATH.json and a chrome trace at PATH.trace.json",
    )


def _cmd_models(args: argparse.Namespace) -> int:
    print(f"{'name':14s} {'params':>8s} {'d_model':>8s} {'layers':>7s} "
          f"{'heads':>6s} {'kv':>4s} {'ffn':>7s}")
    for cfg in PAPER_MODELS.values():
        print(f"{cfg.name:14s} {cfg.params_billion:7.1f}B {cfg.d_model:8d} "
              f"{cfg.n_layers:7d} {cfg.n_heads:6d} {cfg.n_kv_heads:4d} "
              f"{cfg.d_ffn:7d}")
    from repro.training.zoo import ZOO_SPECS

    print("\ntiny zoo models (trained, for accuracy experiments):")
    print("  " + ", ".join(sorted(ZOO_SPECS)))
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    cfg = get_model_config(args.model)
    kernels = args.kernel or sorted(KERNELS)
    unknown = [k for k in kernels if k not in KERNELS]
    if unknown:
        print(f"unknown kernels: {unknown}; known: {sorted(KERNELS)}",
              file=sys.stderr)
        return 2
    metrics_path = _begin_metrics(args)
    print(f"{cfg.name} @ batch {args.batch} on {args.gpu} (simulated)")
    header = f"{'layer':8s} {'n x k':>14s}" + "".join(f"{k:>16s}" for k in kernels)
    print(header)
    spec = KNOWN_GPUS[args.gpu]
    for layer, (n, k) in cfg.linear_shapes().items():
        cells = []
        for kernel in kernels:
            try:
                lat = kernel_latency(kernel, args.batch, n, k, spec=spec)
                cells.append(f"{lat.seconds * 1e6:13.1f}us")
            except ValueError:  # precision unsupported on this GPU
                cells.append(f"{'n/a':>15s}")
        print(f"{layer:8s} {n:>7d}x{k:<6d}" + "".join(f"{c:>16s}" for c in cells))
    _end_metrics(metrics_path)
    return 0


def _build_engine(
    cfg: ModelConfig, args: argparse.Namespace, **config
) -> ServingEngine | None:
    """The engine for ``args.system`` at ``args.batch``, or None after
    printing why its weights and KV pool do not fit."""
    try:
        return ServingEngine(
            cfg,
            build_system(args.system),
            config=EngineConfig(max_batch=args.batch, **config),
        )
    except ValueError as exc:
        print(f"OOM: {exc}", file=sys.stderr)
        return None


def _overload_trace(
    args: argparse.Namespace, engine: ServingEngine
) -> list[Request]:
    """The ``--requests`` overload trace sized to the engine's KV pool."""
    from repro.serving.workload import make_overload_trace

    return make_overload_trace(
        args.requests,
        engine.kv.token_capacity,
        overload=args.overload,
        ttft_slo=args.ttft_slo,
        e2e_slo=args.e2e_slo,
        seed=args.seed,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    cfg = get_model_config(args.model)
    engine = _build_engine(cfg, args)
    if engine is None:
        return 1
    metrics_path = _begin_metrics(args)
    feasible = min(max(engine.plan.max_batch(args.prompt + args.out), 1), args.batch)
    requests = make_batch_requests(
        feasible, args.prompt, args.out,
        ttft_slo=args.ttft_slo, e2e_slo=args.e2e_slo,
    )
    report = engine.run(requests)
    print(f"model={cfg.name} system={args.system} "
          f"input/output={args.prompt}/{args.out}")
    print(f"weights {engine.plan.weight_bytes / 1e9:.1f} GB | "
          f"KV pool {engine.plan.kv_pool_bytes / 1e9:.1f} GB | "
          f"batch {report.peak_batch}")
    print(f"throughput {report.throughput:.1f} tok/s "
          f"({report.output_tokens} tokens in {report.sim_seconds:.2f}s)")
    if args.ttft_slo is not None or args.e2e_slo is not None:
        print(f"goodput {report.goodput:.1f} tok/s | "
              f"deadline misses {report.deadline_misses} | "
              f"timed out {report.requests_timed_out}")
    bd = report.runtime_breakdown()
    print(f"runtime: GEMM {100 * bd['gemm']:.0f}% | "
          f"attention {100 * bd['attention']:.0f}% | "
          f"overhead {100 * bd['overhead']:.0f}%")
    print(report.summary())
    print(LatencyReport.from_requests(requests).summary())
    _end_metrics(metrics_path)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Serving run under a seeded fault plan and an overload trace; exits
    nonzero on any crash, non-terminal request, or goodput below the floor
    (the CI chaos-smoke gate, see docs/resilience.md)."""
    import json
    from dataclasses import asdict

    from repro.serving.faults import FaultPlan
    from repro.serving.request import TERMINAL_PHASES

    cfg = get_model_config(args.model)
    engine = _build_engine(
        cfg, args,
        hbm_bytes=args.hbm_gb * 1e9,
        reserve_full_sequence=not args.optimistic,
        prefill_chunk_tokens=args.chunk or None,
        max_retries=args.max_retries,
        degrade_under_pressure=args.degrade,
    )
    if engine is None:
        return 1
    metrics_path = _begin_metrics(args)
    requests = _overload_trace(args, engine)
    plan = FaultPlan(
        seed=args.seed,
        step_fault_rate=args.step_fault_rate,
        kv_loss_rate=args.kv_loss_rate,
        straggler_rate=args.straggler_rate,
        request_abort_rate=args.request_abort_rate,
    )
    report = engine.run(requests, faults=plan)
    phases = {}
    for r in requests:
        phases[r.phase.value] = phases.get(r.phase.value, 0) + 1
    non_terminal = [r.request_id for r in requests if r.phase not in TERMINAL_PHASES]
    print(f"model={cfg.name} system={args.system} requests={len(requests)} "
          f"overload={args.overload}x seed={args.seed}")
    print(f"faults: step {args.step_fault_rate} | kv-loss {args.kv_loss_rate} | "
          f"straggler {args.straggler_rate} | abort {args.request_abort_rate} "
          f"-> {report.faults_injected} injected")
    print("phases: " + ", ".join(f"{k}={v}" for k, v in sorted(phases.items())))
    print(f"throughput {report.throughput:.1f} tok/s | "
          f"goodput {report.goodput:.1f} tok/s | "
          f"retries {report.retries} | rejected {report.requests_rejected} | "
          f"deadline misses {report.deadline_misses} | "
          f"degraded steps {report.degraded_steps}")
    if args.json:
        from pathlib import Path

        payload = asdict(report)
        payload["throughput"] = report.throughput
        payload["goodput"] = report.goodput
        payload["phases"] = phases
        payload["non_terminal"] = non_terminal
        payload["fault_plan"] = asdict(plan)
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2))
        print(f"report written to {out}")
    _end_metrics(metrics_path)
    if non_terminal:
        print(f"FAIL: non-terminal requests {non_terminal}", file=sys.stderr)
        return 1
    if report.goodput < args.goodput_floor:
        print(f"FAIL: goodput {report.goodput:.1f} < floor "
              f"{args.goodput_floor:.1f}", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard: serve an overload trace with the live-observability
    layer (:mod:`repro.obs.live`) attached, re-rendering the terminal view
    every ``--refresh`` heartbeats; ``--http-port`` additionally serves the
    ``/metrics`` / ``/healthz`` / ``/slo`` / ``/requests`` endpoints while
    the run progresses.  ``--once`` skips the intermediate frames and
    ``--json [PATH|-]`` emits the machine-readable end state (live
    snapshot incl. attribution + report + final SLO) for scripting."""
    import dataclasses
    import json as _json

    import repro.obs as obs
    from repro.obs import live as live_obs
    from repro.serving.faults import FaultPlan

    cfg = get_model_config(args.model)
    engine = _build_engine(
        cfg, args,
        hbm_bytes=args.hbm_gb * 1e9,
        prefill_chunk_tokens=args.chunk or None,
    )
    if engine is None:
        return 1  # before telemetry is on, so the OOM exit leaves it off
    metrics_path = _begin_metrics(args)
    if not metrics_path:
        obs.enable()  # the live layer mirrors health into /metrics
    requests = _overload_trace(args, engine)

    json_to_stdout = args.json == "-"

    def render_frame(bundle: "live_obs.LiveObs") -> None:
        if not args.quiet:
            print(bundle.render())
            print()

    live = live_obs.attach(
        window_seconds=args.window,
        heartbeat_hook=None if args.once else render_frame,
        hook_every=args.refresh,
    )
    server = None
    try:
        if args.http_port is not None:
            from repro.obs.live.httpd import LiveHTTPServer

            server = LiveHTTPServer(live=live, port=args.http_port)
            url = server.start()
            if not json_to_stdout:
                print(f"live endpoints at {url}")
        plan = None
        if args.faults:
            plan = FaultPlan(
                seed=args.seed,
                step_fault_rate=0.1,
                kv_loss_rate=0.02,
                straggler_rate=0.05,
                request_abort_rate=0.1,
            )
        report = engine.run(requests, faults=plan)
        slo = live.slo.snapshot(now=live.clock)
        if not json_to_stdout:
            print(live.render())
            print()
            print(report.summary())
            print(f"SLO final: {slo['state']} (worst {slo['worst_state']}, "
                  f"burn {slo['burn_rate']:.2f}) | "
                  f"flight records {len(live.flights)} "
                  f"({len(live.flights.failures())} failures)")
        _end_metrics(metrics_path, quiet=json_to_stdout)
        if args.json is not None:
            doc = {
                "snapshot": live.snapshot(),
                "report": {
                    **dataclasses.asdict(report),
                    "throughput": report.throughput,
                    "goodput": report.goodput,
                },
                "slo_final": slo,
            }
            text = _json.dumps(doc, indent=2, sort_keys=True)
            if json_to_stdout:
                print(text)
            else:
                with open(args.json, "w") as fh:
                    fh.write(text + "\n")
                if not args.quiet:
                    print(f"json snapshot written to {args.json}")
    finally:
        if server is not None:
            server.stop()
        live_obs.detach()
        if not metrics_path:
            obs.disable()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Post-hoc trace analyzer: read a recorded ``--emit-metrics`` snapshot
    (PATH.json) and explain where the run's latency went — critical-path
    breakdown, tail-latency explainer, optional baseline regression diff
    (see docs/observability.md, "Latency attribution")."""
    import json as _json
    from pathlib import Path

    from repro.obs.attrib import analyze_snapshot, render_analysis

    path = Path(args.snapshot)
    if path.suffix != ".json":
        # A bare `--emit-metrics PATH` prefix: the JSON document lives at
        # PATH.json (PATH itself is the Prometheus text exposition).
        candidate = path.with_name(path.name + ".json")
        if candidate.exists():
            path = candidate
    if not path.exists():
        print(f"analyze: snapshot {args.snapshot!r} not found",
              file=sys.stderr)
        return 2
    doc = _json.loads(path.read_text())

    baseline_doc = None
    if args.baseline is not None:
        baseline_doc = _json.loads(Path(args.baseline).read_text())

    trace_doc = None
    trace_path = (
        Path(args.trace) if args.trace is not None
        else path.with_suffix("").with_name(
            path.with_suffix("").name + ".trace.json"
        )
    )
    if trace_path.exists():
        try:
            trace_doc = _json.loads(trace_path.read_text())
        except ValueError:
            trace_doc = None  # tolerate a torn/partial trace file

    try:
        result = analyze_snapshot(
            doc, top=args.top, baseline_doc=baseline_doc,
            threshold=args.threshold, trace_doc=trace_doc,
        )
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    print(render_analysis(result))
    if args.json is not None:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            _json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print(f"analysis written to {out}")
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    from repro.model.transformer import Transformer
    from repro.training.zoo import load_zoo_model

    metrics_path = _begin_metrics(args)
    entry = load_zoo_model(args.zoo_model)
    params = {k: v.copy() for k, v in entry.model.get_params().items()}
    model = Transformer(entry.model.config, params=params)
    qm = quantize_model(model, entry.corpus, method=args.method)
    ppl_fp = evaluate_perplexity(entry.model, entry.corpus)
    ppl_q = evaluate_perplexity(
        qm.model, entry.corpus, kv_config=qm.report.kv_config
    )
    print(f"model={args.zoo_model} method={args.method}")
    if qm.report.layer_stats:
        print(f"W4A4 GEMM volume: {100 * qm.report.mean_w4a4_fraction:.1f}%")
    print(f"perplexity: fp16 {ppl_fp:.3f} -> quantized {ppl_q:.3f} "
          f"({100 * (ppl_q / ppl_fp - 1):+.2f}%)")
    if args.save:
        from repro.core.serialization import save_quantized_model

        if args.method not in ("fmpq-w4ax", "fmpq-w4axkv4"):
            print("--save supports FMPQ checkpoints only", file=sys.stderr)
            return 2
        save_quantized_model(args.save, qm.model, qm.report.kv_config)
        print(f"checkpoint written to {args.save}")
    _end_metrics(metrics_path)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.kernels.verification import verify_kernels

    report = verify_kernels(cases=args.cases, seed=args.seed)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import (
        kernel_sweep,
        model_layer_shapes,
        sweep_to_csv,
    )
    from repro.api import KERNELS

    kernel_names = args.kernel or ["cublas-w16a16", "trtllm-w4a16",
                                   "trtllm-w8a8", "comet-w4ax"]
    unknown = [k for k in kernel_names if k not in KERNELS]
    if unknown:
        print(f"unknown kernels: {unknown}", file=sys.stderr)
        return 2
    kernels = {name: KERNELS[name]() for name in kernel_names}
    shapes = model_layer_shapes(tuple(args.model or ["llama-3-8b"]))
    rows = kernel_sweep(kernels, shapes, tuple(args.batch or [8, 64, 256]))
    path = sweep_to_csv(rows, args.output)
    print(f"{len(rows)} measurements -> {path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.serving.planner import plan_deployment

    cfg = get_model_config(args.model)
    plan = plan_deployment(
        cfg,
        prompt_len=args.prompt,
        out_len=args.out,
        num_gpus=args.gpus,
        max_batch=args.batch,
        ttft_p95_ceiling=args.ttft_ms / 1e3 if args.ttft_ms else None,
        probe_requests=args.probe,
    )
    print(f"{'system':14s} {'TP':>3s} {'batch':>6s} {'tput tok/s':>11s} "
          f"{'TTFT p95':>9s} {'status'}")
    for c in sorted(plan.candidates, key=lambda c: -c.throughput):
        status = "ok" if c.feasible else c.rejected_reason
        ttft = "-" if c.ttft_p95 == float("inf") else f"{c.ttft_p95 * 1e3:.0f}ms"
        print(f"{c.system:14s} {c.tensor_parallel:>3d} {c.batch:>6d} "
              f"{c.throughput:>11.1f} {ttft:>9s} {status}")
    print("\n" + plan.summary())
    return 0 if plan.best is not None else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Exercise every instrumented layer once and print the telemetry."""
    import repro.obs as obs
    from repro.core.fmpq import calibrate_linear

    obs.enable()
    rng = np.random.default_rng(args.seed)

    # FMPQ layer: calibrate one synthetic linear with outlier channels.
    in_f, out_f, tokens = 256, 128, 64
    weight = rng.standard_normal((out_f, in_f)).astype(np.float32)
    acts = rng.standard_normal((tokens, in_f)).astype(np.float32)
    acts[:, rng.choice(in_f, size=6, replace=False)] *= 30.0
    calibrate_linear(weight, acts, name="stats-demo")

    # Serving + kernel + GPU layers: a short simulated run.
    engine = ServingEngine(
        get_model_config(args.model),
        build_system(args.system),
        config=EngineConfig(max_batch=8),
    )
    engine.run(make_batch_requests(args.requests, args.prompt, args.out))

    reg = obs.metrics()
    print(f"{'metric':42s} {'kind':>10s} {'value':>16s}")
    for fam in reg.collect():
        if fam.kind == "histogram":
            total = sum(c.count for _, c in fam.series())
            val = f"n={total}"
        else:
            total = sum(c.value for _, c in fam.series())
            val = f"{total:g}"
        print(f"{fam.name:42s} {fam.kind:>10s} {val:>16s}")

    spans: dict[str, int] = {}
    for rec in obs.tracer().records:
        # Sim-domain engine steps carry per-step names; group by category.
        name = rec.cat if rec.cat == "engine.step" else rec.name
        if rec.instant:
            name = f"[{name}]"
        spans[name] = spans.get(name, 0) + 1
    print(f"\n{'span / [event]':42s} {'count':>10s}")
    for name in sorted(spans):
        print(f"{name:42s} {spans[name]:>10d}")

    _end_metrics(getattr(args, "emit_metrics", None))
    return 0


def _cmd_staticcheck(args: argparse.Namespace) -> int:
    """Run the AST invariant checker (see docs/staticcheck.md) exactly as
    the CI staticcheck gate does; exits 1 on any non-baselined violation."""
    from pathlib import Path

    from repro import staticcheck

    root = staticcheck.resolve_root(
        Path(args.path) if args.path else Path(__file__).parent
    )
    baseline = None
    baseline_path = None
    if not args.no_baseline:
        baseline_path = (
            Path(args.baseline) if args.baseline
            else staticcheck.discover_baseline(root)
        )
        if baseline_path is not None and baseline_path.is_file():
            baseline = staticcheck.load_baseline(baseline_path)
        elif args.baseline and not args.write_baseline:
            print(f"baseline not found: {baseline_path}", file=sys.stderr)
            return 2

    result = staticcheck.run_check(
        root, baseline=baseline,
        select=set(args.select) if args.select else None,
    )

    if args.write_baseline:
        target = baseline_path or root.parent.parent / "staticcheck-baseline.json"
        count = staticcheck.write_baseline(target, result.reported)
        print(f"baseline written to {target} ({count} entries)")
        return 0

    rendered = (
        staticcheck.format_json(result)
        if args.format == "json"
        else staticcheck.format_text(result, verbose=args.verbose)
    )
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n")
        print(f"report written to {out}")
        if args.format == "text":
            print(rendered.splitlines()[-1])
    else:
        print(rendered)
    return result.exit_code


def _cmd_roofline(args: argparse.Namespace) -> int:
    spec = KNOWN_GPUS[args.gpu]
    print(f"{spec.name}: balance points "
          + ", ".join(
              f"{p}={balance_point(spec, p):.0f} ops/B"
              for p in sorted(spec.tensor_core_tput)
          ))
    for p in roofline_sweep(spec):
        bound = "memory" if p.memory_bound else "compute"
        print(f"{p.name:18s} {p.intensity:10.2f} ops/B "
              f"{p.attainable / 1e12:9.1f} TOPS  {bound}-bound")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMET W4A4KV4 LLM serving — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list registered models").set_defaults(
        func=_cmd_models
    )

    p = sub.add_parser("kernels", help="simulated kernel latencies")
    p.add_argument("--model", default="llama-3-8b")
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--gpu", choices=sorted(KNOWN_GPUS), default="A100-80G-SXM4")
    p.add_argument("--kernel", action="append",
                   help="kernel name (repeatable; default: all)")
    _add_emit_metrics(p)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("serve", help="simulated end-to-end serving")
    p.add_argument("--model", default="llama-3-8b")
    p.add_argument("--system", choices=SYSTEM_NAMES, default="comet")
    p.add_argument("--prompt", type=int, default=1024)
    p.add_argument("--out", type=int, default=512)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--ttft-slo", type=float, default=None,
                   help="per-request TTFT SLO in seconds")
    p.add_argument("--e2e-slo", type=float, default=None,
                   help="per-request end-to-end SLO in seconds")
    _add_emit_metrics(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "chaos", help="serving under injected faults and overload"
    )
    p.add_argument("--model", default="llama-3-8b")
    p.add_argument("--system", choices=SYSTEM_NAMES, default="comet")
    p.add_argument("--requests", type=int, default=60)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--hbm-gb", type=float, default=20.0,
                   help="device memory in GB (small = more KV pressure)")
    p.add_argument("--overload", type=float, default=2.0,
                   help="offered load as a multiple of KV token capacity")
    p.add_argument("--chunk", type=int, default=256,
                   help="prefill chunk tokens (0 = whole-prompt prefill)")
    p.add_argument("--optimistic", action="store_true",
                   help="optimistic admission (reserve_full_sequence=False)")
    p.add_argument("--degrade", action="store_true",
                   help="enable graceful degradation under KV pressure")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-fault-rate", type=float, default=0.1)
    p.add_argument("--kv-loss-rate", type=float, default=0.02)
    p.add_argument("--straggler-rate", type=float, default=0.05)
    p.add_argument("--request-abort-rate", type=float, default=0.1)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--ttft-slo", type=float, default=None)
    p.add_argument("--e2e-slo", type=float, default=None)
    p.add_argument("--goodput-floor", type=float, default=0.0,
                   help="exit nonzero when goodput (tok/s) falls below this")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the full report as JSON")
    _add_emit_metrics(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "top", help="live dashboard over a simulated overload run"
    )
    p.add_argument("--model", default="llama-3-8b")
    p.add_argument("--system", choices=SYSTEM_NAMES, default="comet")
    p.add_argument("--requests", type=int, default=60)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--hbm-gb", type=float, default=20.0,
                   help="device memory in GB (small = more KV pressure)")
    p.add_argument("--overload", type=float, default=2.0,
                   help="offered load as a multiple of KV token capacity")
    p.add_argument("--chunk", type=int, default=256,
                   help="prefill chunk tokens (0 = whole-prompt prefill)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ttft-slo", type=float, default=0.5,
                   help="per-request TTFT SLO in seconds")
    p.add_argument("--e2e-slo", type=float, default=None,
                   help="per-request end-to-end SLO in seconds")
    p.add_argument("--window", type=float, default=1.0,
                   help="sliding-window span in simulated seconds")
    p.add_argument("--refresh", type=int, default=200,
                   help="re-render the dashboard every N heartbeats")
    p.add_argument("--faults", action="store_true",
                   help="inject the default chaos fault plan")
    p.add_argument("--http-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics /healthz /slo /requests on this "
                        "port while the run progresses (0 = ephemeral)")
    p.add_argument("--quiet", action="store_true",
                   help="print only the final dashboard frame")
    p.add_argument("--once", action="store_true",
                   help="one-shot mode: skip the intermediate dashboard "
                        "frames entirely (implies a single final view)")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="emit the machine-readable end state (live "
                        "snapshot incl. attribution + report + final SLO) "
                        "to PATH, or stdout when no PATH / '-' is given "
                        "(suppresses the human-readable output)")
    _add_emit_metrics(p)
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "analyze",
        help="post-hoc latency attribution over a recorded snapshot",
        description="Read an `--emit-metrics` run's PATH.json snapshot "
                    "(its live.attrib cost-ledger section) and print the "
                    "critical-path breakdown, the tail-latency explainer "
                    "(top-k slowest requests vs the p50 profile), and — "
                    "with --baseline — step-phase regressions against a "
                    "committed BENCH_serving.json.",
    )
    p.add_argument("snapshot", help="snapshot JSON path (PATH.json from "
                                    "--emit-metrics PATH; bare PATH works)")
    p.add_argument("--top", type=int, default=5,
                   help="slowest requests to explain (default 5)")
    p.add_argument("--baseline", default=None, metavar="BENCH_JSON",
                   help="committed BENCH_serving.json to diff attribution "
                        "fractions against")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="absolute fraction shift flagged as a regression "
                        "(default 0.10)")
    p.add_argument("--trace", default=None, metavar="TRACE_JSON",
                   help="chrome trace (PATH.trace.json) for the step-kind "
                        "mix; auto-discovered next to the snapshot")
    p.add_argument("--json", default=None, metavar="OUT",
                   help="also write the full analysis document to OUT")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("quantize", help="quantize a tiny zoo model")
    p.add_argument("--zoo-model", default="tiny-llama-1")
    p.add_argument("--method", default="fmpq-w4axkv4")
    p.add_argument("--save", help="write an FMPQ .npz checkpoint here")
    _add_emit_metrics(p)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser(
        "stats", help="exercise all instrumented layers, dump telemetry"
    )
    p.add_argument("--model", default="llama-3-8b")
    p.add_argument("--system", choices=SYSTEM_NAMES, default="comet")
    p.add_argument("--requests", type=int, default=4)
    p.add_argument("--prompt", type=int, default=64)
    p.add_argument("--out", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    _add_emit_metrics(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("selfcheck", help="verify kernel numerics and timing")
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selfcheck)

    p = sub.add_parser("sweep", help="kernel latency sweep to CSV")
    p.add_argument("--model", action="append", default=None,
                   help="paper model (repeatable; default llama-3-8b)")
    p.add_argument("--batch", type=int, action="append", default=None,
                   help="batch size (repeatable; default 8 64 256)")
    p.add_argument("--kernel", action="append", default=None)
    p.add_argument("--output", default="kernel_sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plan", help="recommend a deployment configuration")
    p.add_argument("--model", default="llama-3-8b")
    p.add_argument("--prompt", type=int, default=1024)
    p.add_argument("--out", type=int, default=512)
    p.add_argument("--gpus", type=int, default=1)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--ttft-ms", type=float, default=None,
                   help="optional TTFT p95 SLO in milliseconds")
    p.add_argument("--probe", type=int, default=None,
                   help="requests per probe run (default: one full batch)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "staticcheck",
        help="AST invariant checker: numerics, determinism, obs contracts",
    )
    p.add_argument("path", nargs="?", default=None,
                   help="tree to scan (default: the installed repro package)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="baseline file (default: discovered "
                        "staticcheck-baseline.json)")
    p.add_argument("--no-baseline", action="store_true",
                   help="report baselined violations as live")
    p.add_argument("--write-baseline", action="store_true",
                   help="accept all current violations into the baseline")
    p.add_argument("--select", action="append", metavar="RULE",
                   help="only run this rule ID or family (repeatable)")
    p.add_argument("--verbose", action="store_true",
                   help="also list suppressed and baselined violations")
    p.set_defaults(func=_cmd_staticcheck)

    p = sub.add_parser("roofline", help="print Figure 2 roofline points")
    p.add_argument("--gpu", choices=sorted(KNOWN_GPUS), default="A100-80G-SXM4")
    p.set_defaults(func=_cmd_roofline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(linewidth=120)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
