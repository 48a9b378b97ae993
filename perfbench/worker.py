"""One benchmark child: build a workload in a fresh interpreter, serve it,
check the outputs and print one JSON line of measurements.

``run.py`` starts this script once per sample; each start is a fresh
interpreter, so ``setup_s`` covers interpreter start, imports, engine and
KV-pool construction and observability attach, up to the moment the first
request is handed to the engine.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before the start (the clock is system-wide).

Modes:

* ``setup``  - build the workload, report ``setup_s`` and exit;
* ``full``   - also serve it untraced (``host_s``) and check the outputs;
* ``traced`` - serve it with the span tracer and the engine's phase
  profiler attached, and report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Where traced children write their spans (inside the checkout).
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

# ------------------------------------------------------------- fidelity
#
# Held-out paper figures: the simulator's constants are never fitted to
# them, so a calibration against other figures cannot tune the gate.
#: Liu et al., "COMET: Towards Practical W4A4KV4 LLMs Serving", ASPLOS 2025,
#: Fig. 10 and its text: COMET's mean end-to-end throughput over
#: TRT-LLM-W4A16 at input/output 1024/512 (EXPERIMENTS.md, Figure 10 table).
PAPER_COMET_OVER_W4A16 = 2.02
#: Same source: COMET's mean end-to-end throughput over QServe.
PAPER_COMET_OVER_QSERVE = 1.17

FIG10_MODELS = (
    "mistral-7b",
    "llama-3-8b",
    "llama-2-13b",
    "llama-1-30b",
    "llama-3-70b",
    "qwen2-72b",
)
FIG10_SYSTEMS = ("trtllm-w4a16", "qserve", "comet")
FIG10_PROMPT, FIG10_OUTPUT, FIG10_MAX_BATCH = 1024, 512, 256

# ------------------------------------------------------------- workloads

POISSON_REQUESTS = 50
POISSON_RATE = 40.0  # arrivals per simulated second
POISSON_MEAN_PROMPT, POISSON_MEAN_OUTPUT = 512, 128
POISSON_CHUNK = 512

BURST_REQUESTS = 16000
BURST_SECONDS = 0.25
BURST_PROMPTS = (256, 512, 1024, 2048)
BURST_OUTPUTS = (64, 96, 128, 192)


@dataclass
class Job:
    """One engine run of a workload."""

    label: tuple[str, str]  # (model, system)
    engine: object
    requests: list
    faults: object = None


def build_fig10(seed: int) -> list[Job]:
    """Fig. 10 at 1024/512: every request arrives at t=0, batch =
    min(plan max, 256), full-sequence reservation.  Seedless."""
    del seed
    from repro.model.config import get_model_config
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.request import make_batch_requests
    from repro.serving.systems import build_system

    jobs = []
    for model in FIG10_MODELS:
        cfg = get_model_config(model)
        for system in FIG10_SYSTEMS:
            engine = ServingEngine(
                cfg, build_system(system),
                config=EngineConfig(max_batch=FIG10_MAX_BATCH),
            )
            batch = min(
                max(engine.plan.max_batch(FIG10_PROMPT + FIG10_OUTPUT), 1),
                FIG10_MAX_BATCH,
            )
            jobs.append(Job(
                (model, system), engine,
                make_batch_requests(batch, FIG10_PROMPT, FIG10_OUTPUT),
            ))
    return jobs


def build_poisson(seed: int) -> list[Job]:
    """llama-3-8b COMET under an open loop of Poisson arrivals on the
    simulated clock, chunked prefill, with live obs and the cost ledger
    attached as ``repro.cli top`` attaches them.

    The seed permutes a fixed set of exponential inter-arrival gaps (their
    quantiles), so every seed spans the same time.  Lengths are log-normal
    (sigma 0.4, as in ``make_poisson_trace``) taken at a low-discrepancy
    sequence of quantiles, so every stretch of the trace has a
    representative mix.  A seed thus reorders the traffic without changing
    its amount, which keeps host time steady across seeds.
    """
    from statistics import NormalDist

    import numpy as np

    from repro.model.config import get_model_config
    from repro.obs import live as live_obs
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.request import Request
    from repro.serving.systems import build_system

    engine = ServingEngine(
        get_model_config("llama-3-8b"), build_system("comet"),
        config=EngineConfig(prefill_chunk_tokens=POISSON_CHUNK),
    )
    n = POISSON_REQUESTS
    q = (np.arange(n) + 0.5) / n
    gaps = np.random.default_rng(seed).permutation(-np.log1p(-q) / POISSON_RATE)
    arrivals = np.cumsum(gaps)
    inv = NormalDist().inv_cdf

    def lengths(mean: int, step: float) -> list[int]:
        quantiles = (np.arange(n) * step + 0.5) % 1.0
        return [max(1, int(mean * np.exp(0.4 * inv(u)))) for u in quantiles]

    prompts = lengths(POISSON_MEAN_PROMPT, 0.6180339887)  # golden ratio
    outputs = lengths(POISSON_MEAN_OUTPUT, 0.4142135624)  # sqrt(2) - 1
    requests = [
        Request(request_id=i, prompt_len=prompts[i],
                max_new_tokens=outputs[i], arrival_time=float(arrivals[i]))
        for i in range(n)
    ]
    live_obs.attach()
    return [Job(("llama-3-8b", "comet"), engine, requests)]


def build_burst(seed: int) -> list[Job]:
    """Tiny model at default HBM: thousands of requests in a short burst,
    lengths cycling through a fixed ladder (cost-model caches hit; the
    seed moves arrivals and faults, not the amount of work), optimistic
    admission and a seeded fault plan."""
    import numpy as np

    from repro.model.config import tiny_config
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.faults import FaultPlan
    from repro.serving.request import Request
    from repro.serving.systems import build_system

    engine = ServingEngine(
        tiny_config(name="burst-chaos"), build_system("comet"),
        config=EngineConfig(max_batch=512, reserve_full_sequence=False),
    )
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, BURST_SECONDS, size=BURST_REQUESTS))
    requests = [
        Request(
            request_id=i,
            prompt_len=BURST_PROMPTS[i % len(BURST_PROMPTS)],
            max_new_tokens=BURST_OUTPUTS[i % len(BURST_OUTPUTS)],
            arrival_time=float(arrivals[i]),
        )
        for i in range(BURST_REQUESTS)
    ]
    # The fault mix of `repro.cli top --faults`.
    plan = FaultPlan(
        seed=seed, step_fault_rate=0.1, kv_loss_rate=0.02,
        straggler_rate=0.05, request_abort_rate=0.1,
    )
    return [Job(("tiny", "comet"), engine, requests, plan)]


WORKLOADS = {
    "fig10_batch": build_fig10,
    "poisson_live": build_poisson,
    "burst_chaos": build_burst,
}

# --------------------------------------------------------------- checks


def check_job(job: Job, report) -> list[str]:
    """Output checks for one engine run; returns the failures."""
    from repro.serving.request import TERMINAL_PHASES, Phase

    name = "/".join(job.label)
    errors = []
    sent = len(job.requests)
    phases = [r.phase for r in job.requests]
    stuck = sum(p not in TERMINAL_PHASES for p in phases)
    if stuck:
        errors.append(f"{name}: {stuck} requests never reached a terminal phase")
    counted = {
        Phase.FINISHED: report.requests_completed,
        Phase.FAILED: report.requests_failed,
        Phase.REJECTED: report.requests_rejected,
        Phase.TIMED_OUT: report.requests_timed_out,
    }
    if sum(counted.values()) != sent:
        errors.append(f"{name}: completed+failed+rejected+timed_out "
                      f"{sum(counted.values())} != sent {sent}")
    for phase, n in counted.items():
        if phases.count(phase) != n:
            errors.append(f"{name}: {phases.count(phase)} requests end "
                          f"{phase.value} but the report counts {n}")
    kv = job.engine.kv
    if kv.free_blocks != kv.num_blocks or kv.live_sequences():
        errors.append(f"{name}: KV pool not fully free at the end "
                      f"({kv.free_blocks}/{kv.num_blocks} blocks free)")
    return errors


def fig10_ratios(jobs: list[Job], reports: list) -> tuple[dict, list[str]]:
    """COMET over each baseline per Fig. 10 model, plus the check that
    COMET is the fastest system on every model."""
    tput = {job.label: rep.throughput for job, rep in zip(jobs, reports)}
    ratios: dict[str, dict[str, float]] = {"w4a16": {}, "qserve": {}}
    errors = []
    for model in FIG10_MODELS:
        comet = tput[(model, "comet")]
        w4a16 = tput[(model, "trtllm-w4a16")]
        qserve = tput[(model, "qserve")]
        ratios["w4a16"][model] = comet / w4a16
        ratios["qserve"][model] = comet / qserve
        if not comet > max(w4a16, qserve):
            errors.append(f"fig10: COMET is not the fastest system on {model}")
    return ratios, errors


def fidelity(ratios: dict) -> dict[str, float]:
    """Relative error of the mean COMET gains against the paper."""
    def err(values, paper):
        mean = sum(values) / len(values)
        return abs(mean - paper) / paper

    return {
        "fig10_w4a16_err": err(list(ratios["w4a16"].values()),
                               PAPER_COMET_OVER_W4A16),
        "fig10_qserve_err": err(list(ratios["qserve"].values()),
                                PAPER_COMET_OVER_QSERVE),
    }


def fingerprint(jobs: list[Job], reports: list) -> str:
    """Digest of every report and every request's end state, bit-exact."""
    h = hashlib.sha256()
    for job, rep in zip(jobs, reports):
        for value in dataclasses.astuple(rep):
            h.update((value.hex() if isinstance(value, float)
                      else repr(value)).encode())
        for r in job.requests:
            h.update(f"{r.request_id}:{r.phase.value}:{r.generated}:"
                     f"{r.first_token_time.hex()}:{r.finish_time.hex()};"
                     .encode())
    return h.hexdigest()


# ------------------------------------------------------- sim (outputs)


def sim_metrics(jobs: list[Job], reports: list) -> dict[str, float]:
    """The simulator's outputs, pooled over the workload's engine runs."""
    import numpy as np

    from repro.serving.request import Phase

    sim_s = sum(r.sim_seconds for r in reports)
    ttft, tpot = [], []
    for job in jobs:
        for r in job.requests:
            if r.phase is Phase.FINISHED:
                ttft.append(r.first_token_time - r.arrival_time)
                tpot.append((r.finish_time - r.first_token_time)
                            / max(r.generated - 1, 1))
    q = np.array([50.0, 90.0])
    ttft_q = np.percentile(ttft, q) * 1e3 if ttft else (0.0, 0.0)
    tpot_q = np.percentile(tpot, q) * 1e3 if tpot else (0.0, 0.0)
    busy = sum(r.gemm_seconds + r.attention_seconds + r.overhead_seconds
               for r in reports) or 1.0
    return {
        "sim.tok_s": sum(r.output_tokens for r in reports) / sim_s,
        "sim.goodput_tok_s": sum(r.good_output_tokens for r in reports) / sim_s,
        "sim.ttft_p50_ms": float(ttft_q[0]),
        "sim.ttft_p90_ms": float(ttft_q[1]),
        "sim.tpot_p50_ms": float(tpot_q[0]),
        "sim.tpot_p90_ms": float(tpot_q[1]),
        "sim.peak_batch": max(r.peak_batch for r in reports),
        "sim.preemptions": sum(r.preemptions for r in reports),
        "sim.retries": sum(r.retries for r in reports),
        "sim.gemm_frac": sum(r.gemm_seconds for r in reports) / busy,
        "sim.attention_frac": sum(r.attention_seconds for r in reports) / busy,
        "sim.overhead_frac": sum(r.overhead_seconds for r in reports) / busy,
    }


def request_counts(jobs: list[Job], reports: list) -> dict[str, int]:
    return {
        "sent": sum(len(job.requests) for job in jobs),
        "completed": sum(r.requests_completed for r in reports),
        "failed": sum(r.requests_failed for r in reports),
        "rejected": sum(r.requests_rejected for r in reports),
        "timed_out": sum(r.requests_timed_out for r in reports),
    }


# ------------------------------------------------------------ per layer


def layer_metrics(tracer, profilers: list, reports: list) -> dict[str, float]:
    """Per-layer counts and self times from the traced run."""
    t = tracer.totals()

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def self_of(prefix):
        return sum(r["self_s"] for n, r in t.items() if n.startswith(prefix))

    lat, attn, sched = (t["kernels.latency"], t["kernels.attention"],
                        t["gpu.schedule"])
    eng, stack = t["serving.engine"], t["serving.engine.stack"]
    init, ops = t["serving.paged_kv.init"], t["serving.paged_kv.op"]
    frag, rebuild = (t["serving.paged_kv.fragmentation"],
                     t["serving.batchstate.rebuild"])
    steps = sum(r.engine_steps for r in reports)
    prof_steps = sum(p.steps for p in profilers)
    engine_self = eng["self_s"] + stack["self_s"]
    # Calls made only for observability: the obs layers themselves and the
    # pool's free-list fragmentation gauge their heartbeat samples.
    obs_s = tracer.outermost_seconds(
        lambda n: n.startswith("obs.") or n == "serving.paged_kv.fragmentation"
    )
    out = {
        "kernels.latency.calls": lat["calls"],
        "kernels.latency.self_s": lat["self_s"],
        "kernels.latency.us_per_call": per(lat["incl_s"], lat["calls"], 1e6),
        "kernels.latency.tiles_per_call": per(lat["value"], lat["calls"]),
        "kernels.attention.calls": attn["calls"],
        "kernels.attention.self_s": attn["self_s"],
        "gpu.schedule.calls": sched["calls"],
        "gpu.schedule.self_s": sched["self_s"],
        "gpu.schedule.tasks_per_call": per(sched["value"], sched["calls"]),
        "serving.engine.self_s": engine_self,
        "serving.engine.steps": steps,
        "serving.engine.us_per_step": per(engine_self, steps, 1e6),
    }
    for phase in ("admit", "schedule", "model", "decode", "heartbeat"):
        out[f"serving.engine.{phase}_us"] = per(
            sum(p.seconds[phase] for p in profilers), prof_steps, 1e6)
    out.update({
        "serving.engine.stack_cache_hit_ratio": per(stack["leaves"],
                                                    stack["calls"]),
        "serving.batchstate.rebuild.calls": rebuild["calls"],
        "serving.batchstate.rebuild.self_s": rebuild["self_s"],
        "serving.paged_kv.init_s": init["incl_s"],
        "serving.paged_kv.blocks": init["value"],
        "serving.paged_kv.ops": ops["calls"],
        "serving.paged_kv.self_s": ops["self_s"],
        "serving.paged_kv.fragmentation.calls": frag["calls"],
        "serving.paged_kv.fragmentation.self_s": frag["self_s"],
        "obs.live.heartbeat.calls": t["obs.live.heartbeat"]["calls"],
        "obs.live.self_s": self_of("obs.live."),
        "obs.attrib.self_s": self_of("obs.attrib."),
        "obs.overhead_frac": per(obs_s, eng["incl_s"]),
    })
    return out


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "full", "traced"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    jobs = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    profilers = [None] * len(jobs)
    if tracer is not None:
        from repro.serving.stepprof import StepPhaseProfiler

        profilers = [StepPhaseProfiler() for _ in jobs]
    reports = []
    start = time.perf_counter()
    for job, prof in zip(jobs, profilers):
        reports.append(job.engine.run(job.requests, faults=job.faults,
                                      profiler=prof))
    host_s = time.perf_counter() - start
    from repro.obs import live as live_obs

    live_obs.detach()

    errors = []
    failed_runs = 0
    for job, rep in zip(jobs, reports):
        job_errors = check_job(job, rep)
        failed_runs += bool(job_errors)
        errors += job_errors
    out = {
        "setup_s": setup_s,
        "host_s": host_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs": len(jobs),
        "failed_runs": failed_runs,
        "requests": request_counts(jobs, reports),
        "sim": sim_metrics(jobs, reports),
        "fingerprint": fingerprint(jobs, reports),
    }
    if args.workload == "fig10_batch":
        ratios, fig_errors = fig10_ratios(jobs, reports)
        errors += fig_errors
        out["ratios"] = ratios
        out["fidelity"] = fidelity(ratios)
    out["errors"] = errors
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, profilers, reports)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.trace.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
