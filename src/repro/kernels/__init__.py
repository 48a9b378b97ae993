"""COMET-W4Ax and baseline GEMM kernels (functional + timed)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "attention": (
        "DECODE_ATTENTION", "PREFILL_ATTENTION", "DecodeAttentionKernel",
        "FlashDecodeAttention", "FlashPrefillAttention",
        "NaiveDecodeAttention", "NaivePrefillAttention",
        "PrefillAttentionKernel",
    ),
    "base": (
        "GEMMKernel", "KernelLatency", "PrecisionProfile",
        "clear_latency_memo",
    ),
    "baselines": (
        "CuBLASW16A16", "OracleW4A4", "QServeW4A8", "TRTLLMW4A16",
        "TRTLLMW8A8", "VENDOR_TILE_CANDIDATES",
    ),
    "conversion": (
        "FAST_CONVERSION_SCALE_DIVISOR", "FAST_INSTRUCTIONS_PER_VALUE",
        "NAIVE_INSTRUCTIONS_PER_VALUE", "fast_int4to8", "fp4_to_int8_shift",
        "naive_int4to8", "pack_int4_words_swapped",
    ),
    "layout": (
        "LdmatrixPlan", "deinterleave_from_ldmatrix",
        "interleave_for_ldmatrix", "ldmatrix_plan",
    ),
    "functional": ("PackedW4AxGEMM",),
    "verification": ("VerificationReport", "verify_kernels"),
    "tiling": (
        "GEMMShape", "TileShape", "k_slice_precisions", "precision_runs",
        "tile_grid",
    ),
    "w4ax": ("DEFAULT_INT8_FRACTION", "W4AxKernel"),
})
