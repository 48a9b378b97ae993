"""The metric catalog: canonical names and help strings for every layer.

Instrumented modules register metrics through these constants so one name
never means two things, and ``repro.cli stats`` / ``docs/observability.md``
can enumerate what the system emits.  Names are namespaced by layer:

* ``fmpq.*``    — the quantization pipeline (paper Section 3);
* ``kernel.*``  — the W4Ax / baseline GEMM kernel timing model (Section 4);
* ``kvcache.*`` — the quantized KV cache read/write hot path (Section 3.2);
* ``gpu.*``     — the SM tile-schedule simulator (Section 4.4);
* ``serving.*`` — the continuous-batching engine and paged KV (Section 5).
"""

from __future__ import annotations

__all__ = ["METRIC_CATALOG", "metric_help"]

#: name -> (kind, help).  The single source of truth for metric semantics.
METRIC_CATALOG: dict[str, tuple[str, str]] = {
    # ---------------------------------------------------------------- fmpq
    "fmpq.layers_calibrated_total": (
        "counter", "Linear layers run through FMPQ calibration."),
    "fmpq.outlier_channels_total": (
        "counter", "Activation channels flagged as outliers across layers."),
    "fmpq.channels_total": (
        "counter", "Activation channels examined across layers."),
    "fmpq.blocks_total": (
        "counter", "Channel blocks partitioned across layers."),
    "fmpq.high_blocks_total": (
        "counter", "Channel blocks assigned INT8 (high precision)."),
    "fmpq.w4a4_block_fraction": (
        "histogram", "Per-layer fraction of blocks executed as W4A4."),
    "fmpq.clip_search_iterations_total": (
        "counter", "Clip-ratio grid points evaluated by weight quantization."),
    # -------------------------------------------------------------- kernel
    "kernel.latency_calls_total": (
        "counter", "GEMM latency evaluations, by kernel."),
    "kernel.latency_seconds": (
        "histogram", "Estimated GEMM kernel latency, by kernel."),
    "kernel.tiles_total": (
        "counter", "Work tiles costed, by tile precision (int4/int8)."),
    "kernel.convert_instructions_total": (
        "counter", "CUDA-core format-conversion instructions issued."),
    "kernel.smem_conflict_tiles_total": (
        "counter", "Tiles whose shared-memory feed serializes (conflicts)."),
    "kernel.w4ax_int8_fraction": (
        "gauge", "W4A8 (INT8) k-slice fraction of the last W4Ax GEMM."),
    "kernel.gemm_blocks_batched_total": (
        "counter",
        "Channel blocks executed through the batched packed-GEMM paths, "
        "by precision (int4/int8)."),
    "kernel.decode_attention_seqs_batched_total": (
        "counter",
        "Sequences whose decode attention ran through the stacked "
        "flash-decoding kernel."),
    # ------------------------------------------------------------- kvcache
    "kvcache.groups_dequant_cached_hits_total": (
        "counter",
        "Sealed KV groups served from the memoized dequantization buffer."),
    "kvcache.groups_dequant_cached_misses_total": (
        "counter",
        "Sealed KV groups dequantized for the first time and memoized."),
    # ----------------------------------------------------------------- gpu
    "gpu.schedules_total": (
        "counter",
        "Tile schedules simulated, by policy: on a latency-memo miss, one "
        "per candidate tile that tile selection does not prune."),
    "gpu.waves_total": (
        "counter", "Tile waves issued across simulated schedules."),
    "gpu.sm_busy_seconds_total": (
        "counter", "Aggregate SM busy time across simulated schedules."),
    "gpu.sm_idle_seconds_total": (
        "counter", "Aggregate SM idle time (load imbalance) in schedules."),
    "gpu.barrier_sync_seconds_total": (
        "counter", "Time spent in inter-SM synchronization barriers."),
    "gpu.sm_occupancy": (
        "histogram", "Mean SM busy fraction per simulated schedule."),
    # ------------------------------------------------------------- serving
    "serving.requests_admitted_total": (
        "counter", "Requests admitted into the running batch."),
    "serving.requests_finished_total": (
        "counter", "Requests served to completion."),
    "serving.preemptions_total": (
        "counter", "Requests preempted when the KV pool ran dry."),
    "serving.engine_steps_total": (
        "counter", "Engine steps by kind (prefill/decode/mixed); unlike "
        "report.engine_steps, counts serialized whole-prompt prefills."),
    "serving.output_tokens_total": (
        "counter", "Tokens decoded, incl. ones a preemption or retry later "
        "discards (report.output_tokens counts only tokens requests hold)."),
    "serving.step_seconds": (
        "histogram", "Simulated duration of one engine iteration."),
    "serving.batch_size": (
        "histogram", "Running batch size at each engine iteration."),
    "serving.ttft_seconds": (
        "histogram", "Time to first token (arrival to first decode)."),
    "serving.tpot_seconds": (
        "histogram", "Time per output token during decode."),
    "serving.kv_utilization": (
        "gauge", "Fraction of allocated KV slots holding tokens."),
    "serving.kv_fragmentation": (
        "gauge", "Fraction of allocated KV slots wasted (1 - utilization)."),
    "serving.kv_free_blocks": (
        "gauge", "Free blocks remaining in the paged-KV pool."),
    "serving.kv_blocks_allocated_total": (
        "counter", "Physical KV blocks taken from the pool."),
    "serving.kv_cow_copies_total": (
        "counter", "Copy-on-write block copies (prefix sharing)."),
    # -------------------------------------------------- serving resilience
    "serving.faults_injected_total": (
        "counter",
        "Faults injected by the active FaultPlan, by kind "
        "(kernel_fault/kv_loss/straggler/request_abort)."),
    "serving.retries_total": (
        "counter", "Transient-fault retries re-queued with backoff."),
    "serving.rejected_total": (
        "counter", "Requests refused at admission (can never fit KV)."),
    "serving.requests_failed_total": (
        "counter", "Requests permanently failed (retry budget exhausted)."),
    "serving.requests_timed_out_total": (
        "counter", "Requests cut off by an expired TTFT/e2e deadline."),
    "serving.deadline_misses_total": (
        "counter", "SLO deadline misses (timed-out plus late finishes)."),
    "serving.degraded_steps_total": (
        "counter", "Engine steps run with degraded admission knobs."),
    # ------------------------------------------------- live observability
    "serving.e2e_seconds": (
        "histogram", "End-to-end request latency (arrival to last token)."),
    "serving.live_heartbeats_total": (
        "counter", "Engine heartbeats fed into the live-observability "
        "layer (repro.obs.live)."),
    "serving.slo_burn_rate": (
        "gauge", "Sliding-window SLO burn rate (miss fraction over the "
        "error budget; 1.0 = budget consumed as provisioned)."),
    "serving.slo_state": (
        "gauge", "SLO monitor state: 0 = ok, 1 = warn, 2 = critical."),
    "serving.flightrecorder_evictions_total": (
        "counter", "Completed flight records evicted from the bounded "
        "ring (FIFO, oldest first)."),
    # --------------------------------------------- latency attribution /
    # KV economics (repro.obs.attrib feeds; see docs/observability.md,
    # "Latency attribution")
    "serving.kv_shared_blocks": (
        "gauge", "KV blocks referenced by more than one sequence "
        "(prefix sharing) at the step's clock."),
    "serving.kv_freelist_frag": (
        "gauge", "Free-list scatter of the paged-KV pool "
        "(1 - longest contiguous free run / free blocks)."),
    "serving.step_gemm_seconds": (
        "histogram", "Per-step simulated time in the fused linear-stack "
        "GEMM pass."),
    "serving.step_attention_seconds": (
        "histogram", "Per-step simulated time in attention (including "
        "the KV-dequant carve-out below)."),
    "serving.step_kv_dequant_seconds": (
        "histogram", "Per-step simulated time streaming/dequantizing the "
        "KV4 history (the memory-bound share W4A4KV4 shrinks)."),
    "kvcache.dequant_memo_hit_rate": (
        "gauge", "Sealed-group dequant-memo hit rate of one materialize "
        "call (cache economics of repeated KV4 reads)."),
}

#: Span naming follows the same layer prefixes; the conventional names are
#: documented here for the docs and tests.
SPAN_NAMES: tuple[str, ...] = (
    "serving.engine_run",
    "engine.step",
    "kernel.latency",
    "gpu.simulate_schedule",
    "fmpq.calibrate",
    "fmpq.collect_stats",
    "fmpq.permute",
    "fmpq.assign_blocks",
    "fmpq.weight_quant",
    "fmpq.clip_search",
)


def metric_help(name: str) -> str:
    """Help string for a catalogued metric ('' when unknown)."""
    entry = METRIC_CATALOG.get(name)
    return entry[1] if entry else ""
