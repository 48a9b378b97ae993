"""FMPQ: the paper's fine-grained mixed-precision quantization algorithm.

Public surface of the core quantization library.  See DESIGN.md Section 3.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "blockwise": (
        "BlockConfig", "BlockPrecisionPlan", "QuantizedActivation",
        "assign_block_precisions", "dequantize_activation_blocks",
        "quantize_activation_blocks",
    ),
    "fmpq": (
        "FMPQConfig", "LayerQuantStats", "QuantizedLinear", "calibrate_linear",
        "mixed_precision_matmul",
    ),
    "intquant": (
        "INT4", "INT8", "QuantSpec", "asymmetric_scale_zero",
        "dequantize_asymmetric", "dequantize_symmetric", "pack_int4",
        "pack_int4_words", "quantization_error", "quantize_asymmetric",
        "quantize_symmetric", "symmetric_scale", "unpack_int4",
        "unpack_int4_words",
    ),
    "kvquant": ("KVQuantConfig", "QuantizedKVCache"),
    "outliers": (
        "ChannelStats", "collect_channel_stats", "outlier_channel_mask",
        "outlier_ratio",
    ),
    "permutation": (
        "ChannelPermutation", "identity_permutation",
        "outlier_clustering_permutation",
    ),
    "serialization": ("load_quantized_model", "save_quantized_model"),
    "tuning": ("ThresholdCandidate", "search_outlier_threshold"),
    "weightquant": ("QuantizedWeight", "quantize_weight"),
})
