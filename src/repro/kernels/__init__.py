"""COMET-W4Ax and baseline GEMM kernels (functional + timed)."""

from repro.kernels.attention import (
    DECODE_ATTENTION,
    PREFILL_ATTENTION,
    DecodeAttentionKernel,
    FlashDecodeAttention,
    FlashPrefillAttention,
    NaiveDecodeAttention,
    NaivePrefillAttention,
    PrefillAttentionKernel,
)
from repro.kernels.base import (
    GEMMKernel,
    KernelLatency,
    PrecisionProfile,
    clear_latency_memo,
)
from repro.kernels.baselines import (
    CuBLASW16A16,
    OracleW4A4,
    QServeW4A8,
    TRTLLMW4A16,
    TRTLLMW8A8,
    VENDOR_TILE_CANDIDATES,
)
from repro.kernels.conversion import (
    FAST_CONVERSION_SCALE_DIVISOR,
    FAST_INSTRUCTIONS_PER_VALUE,
    NAIVE_INSTRUCTIONS_PER_VALUE,
    fast_int4to8,
    fp4_to_int8_shift,
    naive_int4to8,
    pack_int4_words_swapped,
)
from repro.kernels.layout import (
    LdmatrixPlan,
    deinterleave_from_ldmatrix,
    interleave_for_ldmatrix,
    ldmatrix_plan,
)
from repro.kernels.functional import PackedW4AxGEMM
from repro.kernels.verification import VerificationReport, verify_kernels
from repro.kernels.tiling import (
    GEMMShape,
    TileShape,
    k_slice_precisions,
    precision_runs,
    tile_grid,
)
from repro.kernels.w4ax import DEFAULT_INT8_FRACTION, W4AxKernel

__all__ = [
    "CuBLASW16A16",
    "DECODE_ATTENTION",
    "DecodeAttentionKernel",
    "FlashDecodeAttention",
    "FlashPrefillAttention",
    "NaiveDecodeAttention",
    "NaivePrefillAttention",
    "PREFILL_ATTENTION",
    "PrefillAttentionKernel",
    "DEFAULT_INT8_FRACTION",
    "FAST_CONVERSION_SCALE_DIVISOR",
    "FAST_INSTRUCTIONS_PER_VALUE",
    "GEMMKernel",
    "GEMMShape",
    "KernelLatency",
    "LdmatrixPlan",
    "NAIVE_INSTRUCTIONS_PER_VALUE",
    "OracleW4A4",
    "PackedW4AxGEMM",
    "PrecisionProfile",
    "VerificationReport",
    "verify_kernels",
    "QServeW4A8",
    "TRTLLMW4A16",
    "TRTLLMW8A8",
    "TileShape",
    "VENDOR_TILE_CANDIDATES",
    "W4AxKernel",
    "clear_latency_memo",
    "deinterleave_from_ldmatrix",
    "fast_int4to8",
    "fp4_to_int8_shift",
    "interleave_for_ldmatrix",
    "k_slice_precisions",
    "ldmatrix_plan",
    "naive_int4to8",
    "pack_int4_words_swapped",
    "precision_runs",
    "tile_grid",
]
