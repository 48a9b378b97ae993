"""Hot-path perf harness: decode cost vs history and batched GEMM throughput.

Guards the two vectorized inference hot paths against regressions:

* **KV4 decode reads** — `QuantizedKVCache` memoizes dequantized sealed
  groups, so a decode step only dequantizes the new token plus the pending
  tail.  The bench appends one token and reads the full cache at growing
  history lengths, for the incremental path and for the O(history)
  full-redequant reference; per-step cost must stay flat in history length.
* **Batched packed W4Ax GEMM** — `PackedW4AxGEMM.run` executes all blocks
  of one precision per stacked matmul; the bench sweeps channel-block
  counts against the per-block loop (`run_per_block`) and reports the
  speedup (target: >= 5x at 32+ blocks).
* **Model decode** — end-to-end `greedy_generate` tokens/s on a tiny
  transformer with a KV4 cache, the number a serving stack actually ships.
* **Simulated serving** — tok/s and latency tails on the simulated clock,
  on a tiny model and on llama-3-8b at the Fig. 10 1024/512 shape.
* **Cost model** (also ``--costmodel``, alone) — µs per cold-memo
  `GEMMKernel.latency` call against tile count, beside the replaced
  per-tile path's cost.
* **Scale** (``--scale``, run alone) — engine step-loop overhead with
  1k/4k/10k queued requests, detached and with live obs attached, gated
  against per-step ceilings (``hotpath_scale``).
* **Footprint** (``--footprint``, run alone) — what the serving path
  loads and keeps: the fresh-interpreter import of
  ``repro.serving.engine`` (seconds, modules, RSS), the bytes of the
  ``burst_chaos`` workload's 16000 requests, and the row-table bytes a
  drained KV pool keeps, beside the figures of the eager-import tree.

Run standalone (CI ``bench-smoke`` does exactly this)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke

or under pytest like every other ``bench_*`` module.  Results land in
``benchmarks/results/hotpath_{kvcache,gemm,decode,serving,costmodel}``
``.{txt,json}``; the JSON
files seed the perf trajectory (uploaded as a CI artifact).  Set
``$REPRO_EMIT_METRICS`` to also capture the ``kvcache.*`` hit/miss and
``kernel.gemm_blocks_batched_total`` counters.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import repro
from bench_util import emit, emit_json, format_table, maybe_emit_metrics
from repro.core.blockwise import (
    BlockConfig,
    BlockPrecisionPlan,
    quantize_activation_blocks,
)
from repro.core.kvquant import KVQuantConfig
from repro.core.weightquant import quantize_weight
from repro.kernels.functional import PackedW4AxGEMM
from repro.model.config import tiny_config
from repro.model.generation import greedy_generate
from repro.model.kvcache import LayerKVCache
from repro.model.transformer import Transformer

# (history lengths, decode steps timed per point, KV group size)
FULL_KV = dict(histories=(64, 256, 1024, 4096), steps=16, group_size=64)
SMOKE_KV = dict(histories=(16, 64, 256), steps=8, group_size=16)
# (block counts, tokens, block size, out features, timing repeats)
FULL_GEMM = dict(blocks=(4, 8, 16, 32, 64), tokens=4, block_size=64,
                 out_features=128, repeats=30)
SMOKE_GEMM = dict(blocks=(4, 16, 32), tokens=2, block_size=32,
                  out_features=64, repeats=10)
# (prompt length, new tokens per point, history lengths reached via prompt)
FULL_DECODE = dict(prompts=(16, 64, 256), new_tokens=32)
SMOKE_DECODE = dict(prompts=(8, 32), new_tokens=8)
# (requests in the simulated serving trace, concurrency cap)
FULL_SERVING = dict(num_requests=48, max_batch=32)
SMOKE_SERVING = dict(num_requests=16, max_batch=8)
# Paper-shape serving rows: Fig. 10 at input/output 1024/512 on llama-3-8b,
# batch = min(plan max, 256), every request at t=0 (as perfbench's
# fig10_batch workload runs it).
PAPER_SERVING = dict(model="llama-3-8b", systems=("comet", "trtllm-w4a16"),
                     prompt=1024, output=512, max_batch=256)
# (kernels, models, token counts m, cold-memo timing repeats per point)
FULL_COSTMODEL = dict(kernels=("comet-w4ax", "trtllm-w4a16", "qserve-w4a8"),
                      models=("llama-3-8b", "llama-3-70b"),
                      ms=(1, 256, 1024), repeats=5)
SMOKE_COSTMODEL = dict(FULL_COSTMODEL, repeats=3)
#: Microseconds per cold ``GEMMKernel.latency`` call on the per-tile cost
#: model this bench replaced (one WorkTile and one TileTask object per
#: thread block), keyed (kernel, model, m): the "before" of the
#: ``hotpath_costmodel`` rows.  Median of 3 runs of the FULL_COSTMODEL
#: grid; Intel Xeon VM (2 vCPU), Python 3.11.7, numpy 2.4.6.
PER_TILE_US_PER_CALL = {
    ("comet-w4ax", "llama-3-8b", 1): 5822,
    ("comet-w4ax", "llama-3-8b", 256): 7093,
    ("comet-w4ax", "llama-3-8b", 1024): 17537,
    ("trtllm-w4a16", "llama-3-8b", 1): 46970,
    ("trtllm-w4a16", "llama-3-8b", 256): 54912,
    ("trtllm-w4a16", "llama-3-8b", 1024): 108572,
    ("qserve-w4a8", "llama-3-8b", 1): 42299,
    ("qserve-w4a8", "llama-3-8b", 256): 51909,
    ("qserve-w4a8", "llama-3-8b", 1024): 106198,
    ("comet-w4ax", "llama-3-70b", 1): 6856,
    ("comet-w4ax", "llama-3-70b", 256): 9031,
    ("comet-w4ax", "llama-3-70b", 1024): 32994,
    ("trtllm-w4a16", "llama-3-70b", 1): 46208,
    ("trtllm-w4a16", "llama-3-70b", 256): 71283,
    ("trtllm-w4a16", "llama-3-70b", 1024): 209661,
    ("qserve-w4a8", "llama-3-70b", 1): 61931,
    ("qserve-w4a8", "llama-3-70b", 256): 69340,
    ("qserve-w4a8", "llama-3-70b", 1024): 200117,
}
# (queued-request tiers for the high-concurrency scaling bench)
FULL_SCALE = dict(tiers=(1000, 4000, 10000), max_batch=512)
SMOKE_SCALE = dict(tiers=(1000,), max_batch=256, repeats=3)
# Step-loop overhead ceilings, us/step (admit + schedule + decode +
# heartbeat wall time).  Each equals the bound the former speedup gate
# against the per-request scalar loop implied: that loop's measured
# overhead divided by the required speedup (1280/5 at 4k, 470/2.5 at 1k).
SCALE_OVERHEAD_CEILING_US = 256.0   # full run, 4k+ tiers
SCALE_SMOKE_CEILING_US = 188.0      # reduced 1k CI variant
# Observability budget: at the 1k smoke tier the attached step loop costs
# at most twice the detached one (obs overhead <= detached overhead), and
# attached us per observed step at 10k stays within this factor of 1k,
# i.e. flat in queue depth.
SCALE_OBS_TIER = 1000
SCALE_OBS_FLAT_RATIO = 1.5
# Footprint: fresh interpreters timed per import figure, the request count
# of perfbench's burst_chaos workload, and a Fig. 10 batch for the pool
# (256 sequences of 1024 prompt tokens, each grown by 512).
FULL_FOOTPRINT = dict(import_runs=7, requests=16000, sequences=256,
                      prompt=1024, output=512)
SMOKE_FOOTPRINT = dict(FULL_FOOTPRINT, import_runs=3)
#: The "before" of the ``hotpath_footprint`` rows: this bench's footprint
#: functions run against the tree before the lazy package exports, the
#: slotted ``Request`` and the drained-pool reset (every package
#: ``__init__`` imported all its submodules).  Import figures: the median
#: of three medians of 7 imports; Intel Xeon VM (2 vCPU), Python 3.11.7,
#: numpy 2.4.6, PYTHONDONTWRITEBYTECODE=1 (every import compiles).
FOOTPRINT_BEFORE = {
    "engine_import_s": 0.394,
    "engine_import_modules": 334,
    "engine_import_rss_mb": 38.5,
    "request_bytes": 8960892,
    "drained_pool_bytes": 266240,
}
#: Unit of each footprint quantity.
FOOTPRINT_UNITS = {
    "engine_import_s": "s",
    "engine_import_modules": "count",
    "engine_import_rss_mb": "MB",
    "request_bytes": "B",
    "drained_pool_bytes": "B",
}


def _timeit(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` calls."""
    fn()  # warm-up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


# ---------------------------------------------------------------- KV cache


def run_kvcache_bench(
    histories=(64, 256, 1024), steps=16, group_size=64, heads=4, head_dim=32
):
    """Per-decode-step cost (append 1 token + full read) vs history length."""
    rng = np.random.default_rng(0)
    rows = []
    for hist in histories:
        cache = LayerKVCache(KVQuantConfig(group_size=group_size))
        slab = rng.normal(size=(hist, heads, head_dim)).astype(np.float32)
        cache.append(slab, slab)
        cache.read()  # materialize the memo before timing

        def step(incremental: bool) -> None:
            tok = rng.normal(size=(1, heads, head_dim)).astype(np.float32)
            cache.append(tok, tok)
            if incremental:
                cache.read()
            else:
                cache.k.dequantized_uncached()
                cache.v.dequantized_uncached()

        cached_s = _timeit(lambda: step(True), steps)
        uncached_s = _timeit(lambda: step(False), steps)
        rows.append(
            {
                "history": int(hist),
                "cached_us_per_step": cached_s * 1e6,
                "uncached_us_per_step": uncached_s * 1e6,
                "speedup": uncached_s / cached_s,
            }
        )
    return rows


# -------------------------------------------------------------------- GEMM


def run_gemm_bench(
    blocks=(4, 8, 16, 32, 64),
    tokens=4,
    block_size=64,
    out_features=128,
    repeats=30,
    high_fraction=0.25,
):
    """Batched vs per-block packed-GEMM latency across channel-block counts."""
    rng = np.random.default_rng(1)
    rows = []
    for nblocks in blocks:
        in_f = nblocks * block_size
        w = rng.normal(size=(out_features, in_f)).astype(np.float32) * 0.2
        x = rng.normal(size=(tokens, in_f)).astype(np.float32)
        qw = quantize_weight(w, group_size=block_size)
        plan = BlockPrecisionPlan(
            config=BlockConfig(block_size=block_size),
            is_high=rng.random(nblocks) < high_fraction,
        )
        qact = quantize_activation_blocks(x, plan)
        gemm = PackedW4AxGEMM(qw, plan=plan)
        assert np.array_equal(gemm.run(qact), gemm.run_per_block(qact))
        batched_s = _timeit(lambda: gemm.run(qact), repeats)
        per_block_s = _timeit(lambda: gemm.run_per_block(qact), repeats)
        rows.append(
            {
                "blocks": int(nblocks),
                "batched_us": batched_s * 1e6,
                "per_block_us": per_block_s * 1e6,
                "speedup": per_block_s / batched_s,
            }
        )
    return rows


# ----------------------------------------------------------- model decode


def run_decode_bench(prompts=(16, 64, 256), new_tokens=32):
    """End-to-end KV4 greedy decode tokens/s on a tiny transformer."""
    max_len = max(prompts) + new_tokens + 1
    config = tiny_config(name="hotpath-bench", max_seq_len=max_len)
    model = Transformer(config)
    rng = np.random.default_rng(2)
    rows = []
    for plen in prompts:
        prompt = rng.integers(0, config.vocab_size, size=plen)
        t0 = time.perf_counter()
        out = greedy_generate(
            model, prompt, new_tokens, kv_config=KVQuantConfig()
        )
        elapsed = time.perf_counter() - t0
        assert out.shape == (new_tokens,)
        rows.append(
            {
                "prompt_tokens": int(plen),
                "new_tokens": int(new_tokens),
                "decode_tokens_per_s": new_tokens / elapsed,
                "us_per_token": elapsed / new_tokens * 1e6,
            }
        )
    return rows


# -------------------------------------------------------- simulated serving


def run_serving_bench(num_requests=48, max_batch=32):
    """Simulated serving throughput and latency tails, per system.

    Unlike the wall-clock rows above, these numbers come from the engine's
    *simulated* clock, so they are bit-deterministic across machines —
    exactly what a cross-commit trajectory file wants.  Feeds the canonical
    root-level ``BENCH_serving.json``; each row carries the run's latency
    ``attribution`` fractions (repro.obs.attrib cost ledger) so
    ``repro.cli analyze --baseline`` can flag step-phase regressions.
    """
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.systems import build_system
    from repro.serving.workload import make_poisson_trace

    model = tiny_config(name="serving-bench")
    rows = []
    for system_name in ("comet", "trtllm-fp16"):
        engine = ServingEngine(
            model,
            build_system(system_name),
            config=EngineConfig(max_batch=max_batch),
        )
        requests = make_poisson_trace(
            num_requests, arrival_rate=50.0, mean_prompt_len=64,
            mean_new_tokens=32, seed=3,
        )
        rows.append(_serving_row(model.name, system_name, engine, requests))
    return rows


def run_paper_serving_bench(model="llama-3-8b", systems=("comet", "trtllm-w4a16"),
                            prompt=1024, output=512, max_batch=256):
    """Simulated serving rows at a paper shape (Fig. 10, 1024/512).

    The tiny-model rows above cannot separate the systems (COMET and
    TRT-LLM-FP16 tie there); at llama-3-8b the rows track the paper's
    actual COMET-over-W4A16 ratio.  Same row schema, simulated clock.
    """
    from repro.model.config import get_model_config
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.request import make_batch_requests
    from repro.serving.systems import build_system

    rows = []
    for system_name in systems:
        engine = ServingEngine(
            get_model_config(model), build_system(system_name),
            config=EngineConfig(max_batch=max_batch),
        )
        batch = min(max(engine.plan.max_batch(prompt + output), 1), max_batch)
        requests = make_batch_requests(batch, prompt, output)
        rows.append(_serving_row(model, system_name, engine, requests))
    return rows


def _serving_row(model_name, system_name, engine, requests) -> dict:
    """Serve ``requests`` with the cost ledger attached; one trajectory row."""
    from repro.obs import live as live_obs
    from repro.serving.metrics import LatencyReport

    live = live_obs.attach(window_seconds=1.0, capacity=len(requests))
    try:
        report = engine.run(requests)
    finally:
        live_obs.detach()
    attribution = live.flights.attribution()["aggregate"]
    lat = LatencyReport.from_requests(requests)
    return {
        "model": model_name,
        "system": system_name,
        "requests": report.requests_completed,
        "throughput_tok_s": report.throughput,
        "ttft_p50_ms": lat.ttft_p50 * 1e3,
        "ttft_p99_ms": lat.ttft_p99 * 1e3,
        "tpot_p99_ms": lat.tpot_p99 * 1e3,
        "e2e_p99_s": lat.e2e_p99,
        "e2e_max_s": lat.e2e_max,
        "attribution": attribution["fractions"],
        "attribution_dominant": attribution["dominant"],
    }


# -------------------------------------------------------------- cost model


def run_costmodel_bench(kernels=("comet-w4ax", "trtllm-w4a16", "qserve-w4a8"),
                        models=("llama-3-8b", "llama-3-70b"),
                        ms=(1, 256, 1024), repeats=5):
    """Host cost of one cold-memo ``GEMMKernel.latency`` call.

    Per (kernel, model, m): the median over ``repeats`` of the mean wall
    time of costing each distinct linear shape of the model with the
    process-wide latency memo cleared first, beside the tile count of the
    chosen tiling and the per-tile path's cost for the same point.
    """
    from repro.api import KERNELS
    from repro.kernels.base import clear_latency_memo
    from repro.kernels.tiling import GEMMShape
    from repro.model.config import get_model_config

    rows = []
    for model in models:
        nk = sorted(set(get_model_config(model).linear_shapes().values()))
        for kernel_name in kernels:
            kernel = KERNELS[kernel_name]()
            for m in ms:
                shapes = [GEMMShape(m, n, k) for n, k in nk]
                samples = []
                for _ in range(repeats):
                    clear_latency_memo()
                    t0 = time.perf_counter()
                    lats = [kernel.latency(shape) for shape in shapes]
                    samples.append((time.perf_counter() - t0) / len(shapes))
                us = float(np.median(samples)) * 1e6
                before = PER_TILE_US_PER_CALL.get((kernel_name, model, m))
                rows.append({
                    "kernel": kernel_name,
                    "model": model,
                    "m": int(m),
                    "shapes": len(shapes),
                    "tiles_per_call": sum(lat.num_tiles for lat in lats) / len(lats),
                    "us_per_call": us,
                    "per_tile_us_per_call": before,
                    "speedup": before / us if before else None,
                })
    clear_latency_memo()
    return rows


# ------------------------------------------------- high-concurrency scale


def _scale_trace(num_requests: int, seed: int = 9):
    """An overload arrival trace with long histories for the scale tiers.

    All requests arrive inside a short burst (the queue goes thousands
    deep) and prompt lengths cycle through a fixed long-history ladder so
    the engine's per-``m`` latency caches hit — the bench then times
    engine *bookkeeping*, not cost-model evaluation.
    """
    from repro.serving.request import Request

    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 0.25, size=num_requests))
    prompts = (256, 512, 1024, 2048)
    outputs = (64, 96, 128, 192)
    return [
        Request(
            request_id=i,
            prompt_len=prompts[i % len(prompts)],
            max_new_tokens=outputs[i % len(outputs)],
            arrival_time=float(arrivals[i]),
        )
        for i in range(num_requests)
    ]


def _scale_run(model, n: int, max_batch: int, attached: bool):
    """One profiled overload run: (report, per-phase us/step, step-loop
    overhead us per observed step).  An attached run observes every step
    it heartbeats, whole-prompt prefills included; a detached run's
    observed steps are its engine steps."""
    from repro.obs import live as live_obs
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.stepprof import StepPhaseProfiler
    from repro.serving.systems import build_system

    engine = ServingEngine(
        model, build_system("comet"),
        config=EngineConfig(max_batch=max_batch),
    )
    prof = StepPhaseProfiler()
    trace = _scale_trace(n)
    live = live_obs.attach(window_seconds=1.0, capacity=n) if attached else None
    # GC pauses land on whichever phase is active and can dwarf the
    # bookkeeping being measured; collect up front, then disable for
    # the timed run.
    gc.collect()
    gc.disable()
    try:
        report = engine.run(trace, profiler=prof)
    finally:
        gc.enable()
        live_obs.detach()
    observed = live.steps if live is not None else report.engine_steps
    return report, prof.per_step_us(), prof.overhead_seconds() * 1e6 / observed


def run_scale_bench(tiers=(1000, 4000, 10000), max_batch=512, repeats=1):
    """Engine bookkeeping cost at high concurrency.

    Runs an overload trace through the engine per tier with a
    :class:`StepPhaseProfiler` attached and reports the wall-clock
    step-loop overhead (admit + schedule + decode + heartbeat phases) next
    to the simulated-kernel ``model`` phase, which is reported but not
    counted as overhead.  A second run with live observability and the
    cost ledger attached gives ``obs_overhead_us_per_step`` (attached
    minus detached step-loop overhead, per engine step) and
    ``attached_us_per_step``: the attached overhead per observed step,
    whole-prompt prefills included, whose growth with queue depth the
    gate bounds.  With ``repeats`` > 1 the detached and attached runs
    alternate that many times and every figure is the median of its
    runs, so host noise between two single runs does not move the gate.
    """
    model = tiny_config(name="scale-bench")
    rows = []
    for n in tiers:
        detached, attached = [], []
        for _ in range(repeats):
            detached.append(_scale_run(model, n, max_batch, attached=False))
            attached.append(_scale_run(model, n, max_batch, attached=True))
        report = detached[0][0]
        us = {p: float(np.median([r[1][p] for r in detached]))
              for p in detached[0][1]}
        attached_us = {"overhead": float(np.median(
            [r[1]["overhead"] for r in attached]
        ))}
        per_observed = float(np.median([r[2] for r in attached]))
        rows.append(
            {
                "requests": int(n),
                "steps": int(report.engine_steps),
                "throughput_tok_s": report.throughput,
                "peak_batch": int(report.peak_batch),
                "overhead_us_per_step": us["overhead"],
                "attached_us_per_step": per_observed,
                "obs_overhead_us_per_step": (
                    attached_us["overhead"] - us["overhead"]
                ),
                "phases_us_per_step": {
                    p: us[p] for p in ("admit", "schedule", "decode",
                                       "heartbeat", "model")
                },
            }
        )
    return rows


def scale_gate(rows, smoke: bool) -> list[str]:
    """What the scale rows break: a step-loop overhead above its tier's
    ceiling, attached observability costing more than the detached loop
    at the 1k smoke tier, or attached us per observed step growing more
    than ``SCALE_OBS_FLAT_RATIO``-fold from the 1k to the 10k tier."""
    ceiling = SCALE_SMOKE_CEILING_US if smoke else SCALE_OVERHEAD_CEILING_US
    gated = 1000 if smoke else 4000
    broken = [
        f"{r['requests']} requests: overhead "
        f"{r['overhead_us_per_step']:.1f} us/step above {ceiling:g}"
        for r in rows
        if r["requests"] >= gated and r["overhead_us_per_step"] > ceiling
    ]
    tiers = {r["requests"]: r for r in rows}
    base = tiers.get(SCALE_OBS_TIER)
    if smoke and base and (
        base["obs_overhead_us_per_step"] > base["overhead_us_per_step"]
    ):
        broken.append(
            f"{SCALE_OBS_TIER} requests: obs overhead "
            f"{base['obs_overhead_us_per_step']:.1f} us/step above the "
            f"detached {base['overhead_us_per_step']:.1f}"
        )
    deep = tiers.get(10 * SCALE_OBS_TIER)
    if base and deep and deep["attached_us_per_step"] > (
        SCALE_OBS_FLAT_RATIO * base["attached_us_per_step"]
    ):
        broken.append(
            f"{deep['requests']} requests: attached "
            f"{deep['attached_us_per_step']:.1f} us/step above "
            f"{SCALE_OBS_FLAT_RATIO:g}x the {SCALE_OBS_TIER}-request "
            f"{base['attached_us_per_step']:.1f}"
        )
    return broken


# --------------------------------------------------------------- footprint

_IMPORT_PROBE = """
import json, resource, sys, time
t = time.perf_counter()
import repro.serving.engine
print(json.dumps([time.perf_counter() - t, len(sys.modules),
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def _engine_import(runs: int) -> dict:
    """Import ``repro.serving.engine`` in ``runs`` fresh interpreters:
    median seconds and RSS (MB) after the import, and the module count."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env,
            capture_output=True, text=True, check=True,
        )
        samples.append(json.loads(proc.stdout))
    seconds, modules, rss_kb = (list(col) for col in zip(*samples))
    return {
        "engine_import_s": float(np.median(seconds)),
        "engine_import_modules": int(modules[0]),
        "engine_import_rss_mb": float(np.median(rss_kb)) / 1024,
    }


def _request_bytes(n: int) -> int:
    """Traced bytes of ``n`` requests (and their list) after the engine's
    stores.  The engine's first store to each ``init=False`` field comes
    in an order that varies per request; rotating the order reproduces
    that."""
    from repro.serving.request import Request

    late = [f.name for f in dataclasses.fields(Request) if not f.init]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        requests = [
            Request(request_id=i, prompt_len=16, max_new_tokens=8)
            for i in range(n)
        ]
        for i, req in enumerate(requests):
            k = i % len(late)
            for name in late[k:] + late[:k]:
                setattr(req, name, getattr(req, name))
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def _drained_pool_bytes(sequences: int, prompt: int, output: int) -> int:
    """Row-table bytes a KV pool keeps after a batch fills it, grows and
    leaves (the pool's free stack and refcounts are not counted)."""
    from repro.serving.paged_kv import PagedKVManager

    block_tokens = 16
    blocks = sequences * -(-(prompt + output) // block_tokens)
    pool = PagedKVManager(blocks * block_tokens, 1.0, block_tokens)
    for sid in range(sequences):
        pool.allocate(sid, prompt)
    rows = np.array([pool.sequence_row(s) for s in range(sequences)])
    for _ in range(output):
        pool.append_token_many(rows)
    for sid in range(sequences):
        pool.free(sid)
    return sum(a.nbytes for a in (pool._table, pool._tokens,
                                  pool._block_capacity))


def run_footprint_bench(import_runs=7, requests=16000, sequences=256,
                        prompt=1024, output=512):
    """One row per footprint quantity: this tree's value beside
    :data:`FOOTPRINT_BEFORE`."""
    after = _engine_import(import_runs)
    after["request_bytes"] = _request_bytes(requests)
    after["drained_pool_bytes"] = _drained_pool_bytes(sequences, prompt, output)
    return [
        {"quantity": name, "unit": FOOTPRINT_UNITS[name],
         "before": FOOTPRINT_BEFORE[name], "after": value}
        for name, value in after.items()
    ]


def emit_footprint(rows, mode: str) -> None:
    emit(
        "hotpath_footprint",
        format_table(
            "Footprint — what the serving path loads and keeps",
            ["quantity", "unit", "before", "after"],
            [[r["quantity"], r["unit"], r["before"], r["after"]] for r in rows],
            notes=[
                "engine_import_*: fresh interpreter, median of imports;",
                "request_bytes: 16000 requests after the engine's stores;",
                "drained_pool_bytes: row tables kept after a Fig. 10 batch;",
                "before: the eager-import tree (FOOTPRINT_BEFORE).",
            ],
        ),
    )
    emit_json(
        "hotpath_footprint", {"mode": mode, "rows": rows},
        trajectory="serving",
    )


def emit_costmodel(rows: list[dict], mode: str) -> None:
    """Write the cost-model rows: the text table and ``hotpath_costmodel``
    in ``BENCH_serving.json``."""
    emit(
        "hotpath_costmodel",
        format_table(
            "Cost model — one cold-memo GEMMKernel.latency call",
            ["kernel", "model", "m", "tiles/call", "us/call",
             "per-tile us/call", "speedup"],
            [
                [r["kernel"], r["model"], r["m"], r["tiles_per_call"],
                 r["us_per_call"], r["per_tile_us_per_call"], r["speedup"]]
                for r in rows
            ],
            notes=[
                "us/call: tile-class costing, latency memo cleared first;",
                "per-tile us/call: the replaced per-tile path (see",
                "PER_TILE_US_PER_CALL for its hardware).",
            ],
        ),
    )
    emit_json("hotpath_costmodel", {"mode": mode, "rows": rows},
              trajectory="serving")


def emit_scale(rows: list[dict], mode: str) -> None:
    """Write the scale rows: the text table and ``hotpath_scale`` in
    ``BENCH_serving.json``."""
    emit(
        "hotpath_scale",
        format_table(
            "Scaling tier — engine step-loop overhead",
            ["requests", "steps", "overhead us/step", "model us/step",
             "obs us/step", "attached us/observed step"],
            [
                [r["requests"], r["steps"], r["overhead_us_per_step"],
                 r["phases_us_per_step"]["model"],
                 r["obs_overhead_us_per_step"], r["attached_us_per_step"]]
                for r in rows
            ],
            notes=[
                "overhead = admit + schedule + decode + heartbeat phases",
                "(wall clock; the simulated-kernel `model` phase is",
                f"reported beside it); ceilings: {SCALE_SMOKE_CEILING_US:g}"
                f" us/step at the 1k smoke tier, "
                f"{SCALE_OVERHEAD_CEILING_US:g} us/step at 4k+.",
                "obs = the same run's overhead with live obs and the cost",
                "ledger attached, minus detached; gated <= detached at the",
                "1k smoke tier.  attached us/observed step counts every",
                "heartbeat, whole-prompt prefills included; gated at 10k",
                f"<= {SCALE_OBS_FLAT_RATIO:g}x the 1k figure.  Smoke figures:",
                f"medians of {SMOKE_SCALE['repeats']} alternating detached/"
                "attached runs.",
            ],
        ),
    )
    emit_json("hotpath_scale", {"mode": mode, "rows": rows},
              trajectory="serving")


# ------------------------------------------------------------- harnessing


def run_all(smoke: bool = False) -> dict:
    maybe_emit_metrics()
    kv_args = SMOKE_KV if smoke else FULL_KV
    gemm_args = SMOKE_GEMM if smoke else FULL_GEMM
    decode_args = SMOKE_DECODE if smoke else FULL_DECODE
    serving_args = SMOKE_SERVING if smoke else FULL_SERVING
    results = {
        "mode": "smoke" if smoke else "full",
        "kvcache": run_kvcache_bench(**kv_args),
        "gemm": run_gemm_bench(**gemm_args),
        "decode": run_decode_bench(**decode_args),
        "serving": (run_serving_bench(**serving_args)
                    + run_paper_serving_bench(**PAPER_SERVING)),
        "costmodel": run_costmodel_bench(
            **(SMOKE_COSTMODEL if smoke else FULL_COSTMODEL)
        ),
    }

    kv = results["kvcache"]
    emit(
        "hotpath_kvcache",
        format_table(
            "Hot path — KV4 decode read cost vs cached history",
            ["history", "cached us/step", "full-redequant us/step", "speedup"],
            [
                [r["history"], r["cached_us_per_step"],
                 r["uncached_us_per_step"], r["speedup"]]
                for r in kv
            ],
            notes=[
                "cached = incremental memoized read (the shipped path);",
                "flat cached cost in history = O(new tokens) per decode step.",
            ],
        ),
    )
    gemm = results["gemm"]
    emit(
        "hotpath_gemm",
        format_table(
            "Hot path — batched vs per-block packed W4Ax GEMM",
            ["blocks", "batched us", "per-block us", "speedup"],
            [
                [r["blocks"], r["batched_us"], r["per_block_us"], r["speedup"]]
                for r in gemm
            ],
            notes=["target: >= 5x at 32+ blocks (ISSUE 2 acceptance)."],
        ),
    )
    decode = results["decode"]
    emit(
        "hotpath_decode",
        format_table(
            "Hot path — KV4 greedy decode throughput (tiny transformer)",
            ["prompt", "new tokens", "tokens/s", "us/token"],
            [
                [r["prompt_tokens"], r["new_tokens"],
                 r["decode_tokens_per_s"], r["us_per_token"]]
                for r in decode
            ],
        ),
    )
    serving = results["serving"]
    emit(
        "hotpath_serving",
        format_table(
            "Hot path — simulated serving throughput and latency tails",
            ["model", "system", "requests", "tok/s", "TTFT p99 ms",
             "e2e p99 s"],
            [
                [r["model"], r["system"], r["requests"], r["throughput_tok_s"],
                 r["ttft_p99_ms"], r["e2e_p99_s"]]
                for r in serving
            ],
            notes=["simulated clock: deterministic across machines;",
                   "llama-3-8b rows: Fig. 10 at 1024/512, all requests at t=0."],
        ),
    )
    emit_costmodel(results["costmodel"], results["mode"])
    for name in ("kvcache", "gemm", "decode"):
        emit_json(f"hotpath_{name}", {"mode": results["mode"], "rows": results[name]})
    # Simulated serving numbers are deterministic, so they also feed the
    # canonical root-level BENCH_serving.json trajectory document.
    emit_json(
        "hotpath_serving",
        {"mode": results["mode"], "rows": serving},
        trajectory="serving",
    )
    return results


# ------------------------------------------------------------ pytest entry


def test_hotpath_decode_cost_flat_in_history():
    """Incremental reads keep per-step decode cost ~flat as history grows."""
    rows = run_kvcache_bench(**SMOKE_KV)
    first, last = rows[0], rows[-1]
    # 16x more history must not cost anywhere near 16x per step; allow 3x
    # slack for timer noise on tiny workloads.
    assert last["cached_us_per_step"] < 3.0 * first["cached_us_per_step"], rows
    # The full-redequant reference grows with history and must be clearly
    # slower than the incremental path at the largest history.
    assert last["speedup"] > 2.0, rows


def test_hotpath_gemm_batched_beats_per_block():
    """Batched execution is >= 5x the per-block loop at 32+ blocks."""
    rows = run_gemm_bench(**SMOKE_GEMM)
    big = [r for r in rows if r["blocks"] >= 32]
    assert big, rows
    # Local measurements sit at 10-18x; assert 5x with CI noise in mind.
    assert max(r["speedup"] for r in big) >= 5.0, rows


def test_hotpath_emits_results():
    results = run_all(smoke=True)
    assert results["kvcache"] and results["gemm"] and results["decode"]


def test_footprint_below_the_eager_tree():
    """Fewer modules, smaller requests, an empty drained pool."""
    rows = {r["quantity"]: r for r in run_footprint_bench(**SMOKE_FOOTPRINT)}
    for name in ("engine_import_modules", "request_bytes",
                 "drained_pool_bytes"):
        assert rows[name]["after"] < rows[name]["before"], rows[name]
    assert rows["drained_pool_bytes"]["after"] == 0


def test_scale_overhead_within_ceiling():
    """Per-step bookkeeping stays under the smoke ceiling at the 1k tier
    (the full run gates the 4k+ tiers at SCALE_OVERHEAD_CEILING_US), and
    attached observability costs at most the detached loop."""
    rows = run_scale_bench(**SMOKE_SCALE)
    assert rows
    assert not scale_gate(rows, smoke=True), rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes for CI: seconds, not minutes",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="run only the high-concurrency scaling tiers (1k/4k/10k "
        "queued requests; 1k only with --smoke), enforce the "
        "step-overhead ceilings and the observability budget, and write "
        "only the hotpath_scale rows",
    )
    parser.add_argument(
        "--footprint",
        action="store_true",
        help="run only the footprint section: engine import cost, request "
        "and drained-pool bytes (the hotpath_footprint rows)",
    )
    parser.add_argument(
        "--costmodel",
        action="store_true",
        help="run only the cost-model section: cold-memo "
        "GEMMKernel.latency calls (the hotpath_costmodel rows)",
    )
    args = parser.parse_args()
    mode = "smoke" if args.smoke else "full"
    if args.footprint:
        emit_footprint(
            run_footprint_bench(
                **(SMOKE_FOOTPRINT if args.smoke else FULL_FOOTPRINT)
            ),
            mode,
        )
    elif args.scale:
        rows = run_scale_bench(**(SMOKE_SCALE if args.smoke else FULL_SCALE))
        emit_scale(rows, mode)
        broken = scale_gate(rows, smoke=args.smoke)
        if broken:
            raise SystemExit("scale regression: " + "; ".join(broken))
    elif args.costmodel:
        emit_costmodel(
            run_costmodel_bench(
                **(SMOKE_COSTMODEL if args.smoke else FULL_COSTMODEL)
            ),
            mode,
        )
    else:
        run_all(smoke=args.smoke)

if __name__ == "__main__":
    main()
